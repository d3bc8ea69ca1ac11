package resilient

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"legion/internal/host"
	"legion/internal/loid"
	"legion/internal/orb"
	"legion/internal/reservation"
	"legion/internal/vclock"
)

func TestClassify(t *testing.T) {
	// A reply that fails to decode fails its call with DecodePayload's
	// error: the frame arrived whole, so the callee answered.
	_, undecodable := orb.DecodePayloadBytes([]byte{0x7f}) // no type has ID 127
	if undecodable == nil {
		t.Fatal("payload with an unknown type ID decoded")
	}
	cases := []struct {
		name string
		err  error
		want Class
	}{
		{"nil", nil, ClassOK},
		{"injected fault", fmt.Errorf("wrap: %w", orb.ErrInjectedFault), ClassRetryable},
		{"deadline", context.DeadlineExceeded, ClassRetryable},
		{"canceled", context.Canceled, ClassPermanent},
		{"not bound", fmt.Errorf("%w: x", orb.ErrNotBound), ClassPermanent},
		{"policy", fmt.Errorf("%w: domain refused", host.ErrPolicy), ClassPermanent},
		{"conflict", fmt.Errorf("%w: slot", reservation.ErrConflict), ClassPermanent},
		{"circuit open", fmt.Errorf("%w: cooling", ErrCircuitOpen), ClassPermanent},
		{"shed", fmt.Errorf("%w by orb server", orb.ErrOverload), ClassPermanent},
		{"conn loss", fmt.Errorf("%w: closed by peer", orb.ErrConnLost), ClassRetryable},
		{"dial failure", fmt.Errorf("%w: dial 127.0.0.1:9: connection refused", orb.ErrUnreachable), ClassRetryable},
		{"unknown", errors.New("some application error"), ClassPermanent},
		{"transport words in an answer", errors.New("config: unexpected EOF in record 3"), ClassPermanent},
		{"reply that fails to decode", undecodable, ClassPermanent},
		// A provider's refusal joined with a lost connection is the
		// connection's: the transport failed, so the outcome is unknown.
		// No production path joins errors, and a refusal that crossed a
		// socket is a RemoteError's text, which unwraps to no sentinel.
		{"refusal and conn loss", errors.Join(fmt.Errorf("%w: domain refused", host.ErrPolicy),
			fmt.Errorf("%w: closed by peer", orb.ErrConnLost)), ClassRetryable},
		{"conflict and conn loss", errors.Join(fmt.Errorf("%w: slot", reservation.ErrConflict),
			fmt.Errorf("%w: closed by peer", orb.ErrConnLost)), ClassRetryable},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
}

func TestNeverReached(t *testing.T) {
	if !NeverReached(fmt.Errorf("%w", orb.ErrInjectedFault)) {
		t.Error("injected fault should be never-reached")
	}
	if !NeverReached(fmt.Errorf("%w: dial 127.0.0.1:9: connection refused", orb.ErrUnreachable)) {
		t.Error("dial failure should be never-reached")
	}
	if NeverReached(fmt.Errorf("%w: closed by peer", orb.ErrConnLost)) {
		t.Error("mid-call connection loss may have reached the target")
	}
	if NeverReached(nil) {
		t.Error("nil is not never-reached")
	}
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	n := 0
	err := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond, Jitter: -1}.Do(
		context.Background(), func(ctx context.Context) error {
			n++
			if n < 3 {
				return fmt.Errorf("%w: flaky", orb.ErrInjectedFault)
			}
			return nil
		})
	if err != nil || n != 3 {
		t.Fatalf("err=%v attempts=%d", err, n)
	}
}

func TestDoStopsOnPermanent(t *testing.T) {
	n := 0
	err := Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}.Do(
		context.Background(), func(ctx context.Context) error {
			n++
			return fmt.Errorf("%w: refused", host.ErrPolicy)
		})
	if !errors.Is(err, host.ErrPolicy) || n != 1 {
		t.Fatalf("err=%v attempts=%d, want 1 attempt with policy error", err, n)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	n := 0
	err := Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, Jitter: -1}.Do(
		context.Background(), func(ctx context.Context) error {
			n++
			return fmt.Errorf("%w: always", orb.ErrInjectedFault)
		})
	if !errors.Is(err, orb.ErrInjectedFault) || n != 3 {
		t.Fatalf("err=%v attempts=%d", err, n)
	}
}

func TestDoHonorsBudget(t *testing.T) {
	n := 0
	start := time.Now()
	err := Policy{MaxAttempts: 100, BaseDelay: 20 * time.Millisecond, Jitter: -1,
		Budget: 30 * time.Millisecond}.Do(
		context.Background(), func(ctx context.Context) error {
			n++
			return fmt.Errorf("%w: always", orb.ErrInjectedFault)
		})
	if err == nil {
		t.Fatal("want error")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("budget ignored: ran %v over %d attempts", elapsed, n)
	}
	if n >= 100 {
		t.Fatalf("attempts not cut short by budget: %d", n)
	}
}

func TestDoAttemptTimeout(t *testing.T) {
	n := 0
	err := Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, Jitter: -1,
		AttemptTimeout: 10 * time.Millisecond}.Do(
		context.Background(), func(ctx context.Context) error {
			n++
			<-ctx.Done() // simulate a hung endpoint honoring ctx
			return ctx.Err()
		})
	if !errors.Is(err, context.DeadlineExceeded) || n != 2 {
		t.Fatalf("err=%v attempts=%d, want deadline after 2 attempts", err, n)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	vc := vclock.NewVirtualAt(time.Date(1999, 4, 12, 0, 0, 0, 0, time.UTC))
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, Cooldown: time.Second}, vc)

	transport := fmt.Errorf("%w: boom", orb.ErrInjectedFault)
	for i := 0; i < 3; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker refused call %d: %v", i, err)
		}
		b.Record(transport)
	}
	if b.State() != Open {
		t.Fatalf("state after threshold: %v, want open", b.State())
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("open breaker allowed a call: %v", err)
	}

	// Cooldown elapses: one probe is admitted, a second refused.
	vc.Advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open probe refused: %v", err)
	}
	if err := b.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("second concurrent probe allowed: %v", err)
	}

	// Failed probe re-opens.
	b.Record(transport)
	if b.State() != Open {
		t.Fatalf("state after failed probe: %v, want open", b.State())
	}

	// Another cooldown; successful probe closes.
	vc.Advance(2 * time.Second)
	if err := b.Allow(); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatalf("state after good probe: %v, want closed", b.State())
	}
}

func TestBreakerPermanentRefusalsDoNotTrip(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 2}, nil)
	refusal := fmt.Errorf("%w: no", host.ErrPolicy)
	for i := 0; i < 10; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("refusals tripped breaker at %d: %v", i, err)
		}
		b.Record(refusal)
	}
	if b.State() != Closed {
		t.Fatalf("state: %v, want closed (endpoint is alive)", b.State())
	}
	// Refusals also reset a transport-failure streak.
	b.Record(fmt.Errorf("%w", orb.ErrInjectedFault))
	b.Record(refusal)
	b.Record(fmt.Errorf("%w", orb.ErrInjectedFault))
	if b.State() != Closed {
		t.Fatal("streak not reset by a successful (refused) round trip")
	}
}

// fakeInvoker scripts per-target behaviour for Caller tests.
type fakeInvoker struct {
	mu    sync.Mutex
	calls map[string]int
	fail  map[string]func(n int) error // n is the 1-based call count
}

func (f *fakeInvoker) Call(ctx context.Context, target loid.LOID, method string, arg any) (any, error) {
	f.mu.Lock()
	f.calls[target.String()]++
	n := f.calls[target.String()]
	fn := f.fail[target.String()]
	f.mu.Unlock()
	if fn != nil {
		if err := fn(n); err != nil {
			return nil, err
		}
	}
	return "ok", nil
}

func TestCallerRetriesThroughBreaker(t *testing.T) {
	good := loid.LOID{Domain: "d", Class: "Host", Instance: 1}
	f := &fakeInvoker{calls: map[string]int{}, fail: map[string]func(int) error{
		good.String(): func(n int) error {
			if n < 3 {
				return fmt.Errorf("%w: flaky", orb.ErrInjectedFault)
			}
			return nil
		},
	}}
	c := NewCaller(f, Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, Jitter: -1},
		NewBreakerSet(BreakerConfig{FailureThreshold: 10}, nil))
	res, err := Invoke[string, any](context.Background(), c, c.Policy(), good, "m", nil)
	if err != nil || res != "ok" {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if got := f.calls[good.String()]; got != 3 {
		t.Fatalf("calls=%d, want 3", got)
	}
}

func TestCallerOpensBreakerAndFailsFast(t *testing.T) {
	dead := loid.LOID{Domain: "d", Class: "Host", Instance: 2}
	f := &fakeInvoker{calls: map[string]int{}, fail: map[string]func(int) error{
		dead.String(): func(n int) error { return fmt.Errorf("%w: down", orb.ErrInjectedFault) },
	}}
	c := NewCaller(f, Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, Jitter: -1},
		NewBreakerSet(BreakerConfig{FailureThreshold: 3, Cooldown: time.Hour}, nil))
	if _, err := Invoke[any, any](context.Background(), c, c.Policy(), dead, "m", nil); err == nil {
		t.Fatal("want failure")
	}
	// The first call burned 3 attempts and opened the breaker; the next
	// call must fail fast without touching the endpoint.
	before := f.calls[dead.String()]
	_, err := Invoke[any, any](context.Background(), c, c.Policy(), dead, "m", nil)
	if !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err=%v, want circuit open", err)
	}
	if f.calls[dead.String()] != before {
		t.Fatalf("open breaker still reached endpoint: %d → %d", before, f.calls[dead.String()])
	}
}

func TestCallerOnceDoesNotRetry(t *testing.T) {
	l := loid.LOID{Domain: "d", Class: "Class", Instance: 3}
	f := &fakeInvoker{calls: map[string]int{}, fail: map[string]func(int) error{
		l.String(): func(n int) error { return fmt.Errorf("%w", orb.ErrInjectedFault) },
	}}
	c := NewCaller(f, Policy{MaxAttempts: 5, BaseDelay: time.Microsecond}, NewBreakerSet(BreakerConfig{}, nil))
	once := c.Policy()
	once.MaxAttempts = 1
	_, err := Invoke[string, any](context.Background(), c, once, l, "m", nil)
	if err == nil || f.calls[l.String()] != 1 {
		t.Fatalf("err=%v calls=%d, want 1 attempt", err, f.calls[l.String()])
	}
}

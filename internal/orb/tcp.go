package orb

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"legion/internal/fanout"
	"legion/internal/loid"
	"legion/internal/telemetry"
	"legion/internal/vclock"
	"legion/internal/wire"
)

// request is one method invocation on the wire. TraceID/SpanID carry
// the caller's active telemetry span (zero when the caller has none) so
// the serving runtime's spans parent under it — this is how one
// placement request is followed across runtimes. Deadline carries the
// caller's context deadline (UnixNano; zero when the caller has none):
// the serving runtime reconstructs it as a server-side context deadline,
// so work the caller has already abandoned is cancelled at every hop
// instead of only at the origin.
type request struct {
	ID       uint64
	Target   loid.LOID
	Method   string
	Arg      any
	TraceID  uint64
	SpanID   uint64
	Deadline int64

	// span is "rpc/"+Method, taken from the connection's method table on
	// the serving side; it does not cross the wire.
	span string
}

// response is the reply to one request.
type response struct {
	ID      uint64
	Result  any
	ErrMsg  string
	ErrKind int // 0 none, 1 generic, 2 not bound, 3 no method, 4 deadline expired, 5 overload
}

const (
	errKindNone = iota
	errKindGeneric
	errKindNotBound
	errKindNoMethod
	errKindDeadline
	errKindOverload
)

func encodeErr(err error) (int, string) {
	switch {
	case err == nil:
		return errKindNone, ""
	case errors.Is(err, ErrNotBound):
		return errKindNotBound, err.Error()
	case errors.Is(err, ErrNoMethod):
		return errKindNoMethod, err.Error()
	case errors.Is(err, ErrDeadlineExpired):
		return errKindDeadline, err.Error()
	case errors.Is(err, ErrServerOverload):
		return errKindOverload, err.Error()
	default:
		return errKindGeneric, err.Error()
	}
}

func decodeErr(kind int, msg string) error {
	switch kind {
	case errKindNone:
		return nil
	case errKindNotBound:
		return fmt.Errorf("%w: %s", ErrNotBound, msg)
	case errKindNoMethod:
		return fmt.Errorf("%w: %s", ErrNoMethod, msg)
	case errKindDeadline:
		return fmt.Errorf("%w: %s", ErrDeadlineExpired, msg)
	case errKindOverload:
		return fmt.Errorf("%w (remote)", ErrServerOverload)
	default:
		return &RemoteError{Msg: msg}
	}
}

// tcpServer accepts connections and serves requests against a Runtime.
type tcpServer struct {
	rt     *Runtime
	ln     net.Listener
	lim    *fanout.Limiter
	mu     sync.Mutex
	cs     map[net.Conn]struct{}
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc

	// served is the set of method names that label this server's
	// metrics, never nil and published whole like callHooks; servedMu
	// serializes the copy-and-publish. See methodLabel.
	servedMu sync.Mutex
	served   atomic.Pointer[map[string]struct{}]
}

// ListenAndServe starts serving this runtime's objects on addr (e.g.
// "127.0.0.1:0"). It returns the bound address. A runtime serves at most
// one listener; calling it twice is an error.
func (rt *Runtime) ListenAndServe(addr string) (string, error) {
	rt.mu.Lock()
	if rt.server != nil {
		rt.mu.Unlock()
		return "", errors.New("orb: runtime already listening")
	}
	rt.mu.Unlock()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("orb: listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &tcpServer{rt: rt, ln: ln, lim: rt.serverLimiter(),
		cs: make(map[net.Conn]struct{}), ctx: ctx, cancel: cancel}
	s.served.Store(&map[string]struct{}{})

	rt.mu.Lock()
	rt.server = s
	rt.mu.Unlock()

	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Addr returns the listener address, or "" if not listening.
func (rt *Runtime) Addr() string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.server == nil {
		return ""
	}
	return rt.server.ln.Addr().String()
}

// Close shuts down the listener, all server connections, and all client
// connections. The runtime's local object table is unaffected.
func (rt *Runtime) Close() error {
	rt.mu.Lock()
	s := rt.server
	rt.server = nil
	rt.mu.Unlock()
	if s != nil {
		s.cancel()
		s.ln.Close()
		s.mu.Lock()
		for c := range s.cs {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	}
	// Collect first, close outside clientsMu: each close invokes the
	// eviction hook, which itself takes clientsMu.
	rt.clientsMu.Lock()
	clients := make([]*tcpClient, 0, len(rt.clients))
	for addr, c := range rt.clients {
		clients = append(clients, c)
		delete(rt.clients, addr)
	}
	rt.clientsMu.Unlock()
	for _, c := range clients {
		c.close(errors.New("orb: runtime closed"))
	}
	return nil
}

func (s *tcpServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.cs[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn validates the connection preamble and serves frames. A bad
// preamble drops the connection: refusing streams that do not open with
// it keeps stray connections from wedging a decoder. The codec byte has
// one accepted value; 'G' named the retired gob stream.
func (s *tcpServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.cs, conn)
		s.mu.Unlock()
	}()
	var pre [len(preamble)]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return
	}
	if pre != preamble {
		return
	}
	s.serveBinary(conn)
}

// unknownMethod labels the metrics of a method name that has not earned
// its own series.
const unknownMethod = "unknown"

// methodLabel returns the method label for a request's metrics. The name
// in a frame is whatever the peer wrote, and a registry keeps every
// series for the life of the process, so a name labels metrics only once
// a dispatch of it has returned something other than ErrNoMethod or
// ErrNotBound — which bounds the set by the methods this process really
// exports, and keeps a name crafted to break out of the label's quotes
// away from /metrics. Until then it is observed as unknownMethod.
func (s *tcpServer) methodLabel(method string) string {
	if _, ok := (*s.served.Load())[method]; ok {
		return method
	}
	return unknownMethod
}

// earnLabel adds method to the served set and reports whether it is in
// it. The set is capped like a connection's method table: a dispatch can
// also fail before it reaches an object (a forwarded call whose next hop
// is down), and that must not reopen the door.
func (s *tcpServer) earnLabel(method string) bool {
	s.servedMu.Lock()
	defer s.servedMu.Unlock()
	old := *s.served.Load()
	if _, ok := old[method]; ok {
		return true
	}
	if len(old) >= maxMethods {
		return false
	}
	next := make(map[string]struct{}, len(old)+1)
	for k := range old {
		next[k] = struct{}{}
	}
	next[method] = struct{}{}
	s.served.Store(&next)
	return true
}

// process runs one decoded request against the runtime: span
// re-parenting, propagated-deadline enforcement, dispatch, server-side
// metrics.
func (s *tcpServer) process(req request) (any, error) {
	ctx := telemetry.WithRemoteParent(s.ctx,
		telemetry.SpanContext{TraceID: req.TraceID, SpanID: req.SpanID})
	reg := s.rt.Metrics()
	ctx, span := reg.Spans().StartIn(ctx, req.span, s.rt.Domain())
	start := time.Now()
	label := s.methodLabel(req.Method)
	var res any
	var err error
	if req.Deadline != 0 {
		dl := time.Unix(0, req.Deadline)
		if !dl.After(time.Now()) {
			// The caller abandoned this request before we even dequeued
			// it: refuse without invoking the method so doomed work is
			// shed at every hop, not just at the origin.
			reg.Counter("legion_orb_deadline_expired_total",
				"method", label).Inc()
			err = fmt.Errorf("%w: %s (deadline %s ago)",
				ErrDeadlineExpired, req.Method,
				time.Since(dl).Round(time.Millisecond))
		} else {
			var cancel context.CancelFunc
			ctx, cancel = vclock.WithDeadline(ctx, dl)
			defer cancel()
		}
	}
	if err == nil {
		res, err = s.rt.Call(ctx, req.Target, req.Method, req.Arg)
		if label == unknownMethod && !errors.Is(err, ErrNoMethod) && !errors.Is(err, ErrNotBound) &&
			s.earnLabel(req.Method) {
			label = req.Method
		}
	}
	span.Finish(err)
	reg.Histogram("legion_orb_server_seconds", telemetry.LatencyBuckets,
		"method", label).ObserveSince(start)
	if err != nil {
		reg.Counter("legion_orb_server_errors_total", "method", label).Inc()
	}
	return res, err
}

// shed records and reports a refused frame. The handler pool is full:
// responding immediately (instead of queueing) gives the caller a typed
// permanent refusal its retry policy will not amplify.
func (s *tcpServer) shed(method string) error {
	s.rt.Metrics().Counter("legion_orb_server_overload_total",
		"method", s.methodLabel(method)).Inc()
	return ErrServerOverload
}

// serveBinary is the wire protocol: length-prefixed frames, a
// per-connection method table built as frames arrive, handler
// goroutines bounded by the server-wide limiter, and responses
// coalesced into batched writes.
func (s *tcpServer) serveBinary(conn net.Conn) {
	co := newCoalescer(conn, func(error) { conn.Close() })
	var mt methodTable
	br := bufio.NewReaderSize(conn, 64<<10)
	var body []byte
	var r wire.Reader // reused across frames: warm symbol cache, one allocation per connection
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxFrameLen {
			return
		}
		if uint64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		// Header and payload decode stay on the read loop: method-table
		// updates must apply in frame order, and decoded values never
		// alias body, so the buffer is immediately reusable.
		r.Reset(body)
		req, err := decodeRequestHeader(&r, &mt)
		if err != nil {
			return // corrupt header: the stream is unrecoverable
		}
		var perr error
		req.Arg, perr = DecodePayload(&r)
		if perr == nil && len(r.B) != 0 {
			perr = fmt.Errorf("orb: request frame has %d trailing bytes", len(r.B))
		}
		if perr != nil {
			// The frame boundary is intact, so the connection survives a
			// bad payload; only this request fails.
			s.respondBinary(co, req.ID, nil, perr)
			continue
		}
		f, _ := framePool.Get().(*frame)
		if f == nil {
			f = new(frame)
			f.run = f.serve
		}
		f.s, f.co, f.wg, f.req = s, co, &reqWG, req
		reqWG.Add(1)
		if !s.lim.TryGo(f.run) {
			reqWG.Done()
			f.release()
			s.respondBinary(co, req.ID, nil, s.shed(req.Method))
		}
	}
}

// frame is one admitted request on its way to a handler. Frames are
// pooled, and run is bound to serve once, when the frame is made, so
// admitting a frame allocates nothing.
type frame struct {
	s   *tcpServer
	co  *coalescer
	wg  *sync.WaitGroup
	req request
	run func()
}

// framePool has no New: serve puts frames back in it, so a New that
// bound serve would make its initializer refer to itself.
var framePool sync.Pool

// serve handles the frame's request and answers it. It takes what it
// needs and returns the frame to the pool first, so a handler that runs
// long does not keep a frame out of it.
func (f *frame) serve() {
	s, co, wg, req := f.s, f.co, f.wg, f.req
	f.release()
	defer wg.Done()
	res, err := s.process(req)
	s.respondBinary(co, req.ID, res, err)
}

// release clears the frame, the request's argument included, and puts
// it back in the pool: a pooled frame pins nothing.
func (f *frame) release() {
	f.s, f.co, f.wg, f.req = nil, nil, nil, request{}
	framePool.Put(f)
}

// respondBinary encodes res outside the coalescer lock and appends one
// response frame.
func (s *tcpServer) respondBinary(co *coalescer, id uint64, res any, err error) {
	payload := wire.GetBuf()
	pb, perr := AppendPayload((*payload)[:0], res)
	if perr != nil {
		err = perr
		pb, _ = AppendPayload((*payload)[:0], nil)
	}
	*payload = pb
	kind, msg := encodeErr(err)
	co.append(func(b []byte) []byte {
		return appendResponseFrame(b, &co.scratch, id, kind, msg, *payload)
	})
	wire.PutBuf(payload)
}

// tcpClient multiplexes calls to one remote runtime over one connection.
type tcpClient struct {
	conn net.Conn

	// Frames coalesce into batched writes.
	co *coalescer

	onClose func(*tcpClient) // eviction hook, run once on first close

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan response
	err     error
}

func dialClient(addr string, onClose func(*tcpClient)) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("orb: dial %s: %w", addr, err)
	}
	if _, err := conn.Write(preamble[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("orb: preamble %s: %w", addr, err)
	}
	c := &tcpClient{
		conn:    conn,
		onClose: onClose,
		pending: make(map[uint64]chan response),
	}
	c.co = newCoalescer(conn, func(err error) {
		c.close(fmt.Errorf("orb: send: %w", err))
	})
	go c.readLoopBinary()
	return c, nil
}

func (c *tcpClient) readLoopBinary() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var body []byte
	var r wire.Reader // reused across frames: warm symbol cache
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxFrameLen {
			if err == nil {
				err = fmt.Errorf("orb: response frame of %d bytes exceeds limit", n)
			} else if err == io.EOF {
				err = errors.New("orb: connection closed by peer")
			}
			c.close(err)
			return
		}
		if uint64(cap(body)) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			c.close(err)
			return
		}
		resp, err := decodeResponseFrame(&r, body)
		if err != nil {
			c.close(fmt.Errorf("orb: decode response: %w", err))
			return
		}
		c.deliver(resp)
	}
}

// deliver hands a response to its waiting caller; responses for
// withdrawn IDs (caller gave up) are dropped.
func (c *tcpClient) deliver(resp response) {
	c.mu.Lock()
	ch, ok := c.pending[resp.ID]
	delete(c.pending, resp.ID)
	c.mu.Unlock()
	if ok {
		ch <- resp
	}
}

// close fails all pending calls, marks the client dead, and (once) runs
// the eviction hook so the owning Runtime drops it from the client cache
// — the next call to this address redials instead of failing forever on
// a dead connection.
func (c *tcpClient) close(err error) {
	c.conn.Close()
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- response{ErrKind: errKindGeneric, ErrMsg: c.err.Error()}
	}
	onClose := c.onClose
	c.mu.Unlock()
	// Outside c.mu: the hook takes the Runtime's clientsMu, which other
	// goroutines hold while taking c.mu (lock-order discipline).
	if first && onClose != nil {
		onClose(c)
	}
}

// replyPool recycles reply slots: capacity-1 channels, so deliver and
// close never block on a caller that gave up. A slot goes back only from
// the arm of call that received on it: by then it has left pending and
// its one send is consumed, so nobody else holds it. A caller that gave
// up drops its slot instead, because deliver may already have taken it
// out of pending and be about to send.
var replyPool = sync.Pool{New: func() any { return make(chan response, 1) }}

// register allocates a request ID and its reply slot.
func (c *tcpClient) register(req *request) (chan response, error) {
	ch := replyPool.Get().(chan response)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = ch
	c.mu.Unlock()
	return ch, nil
}

// withdraw removes a pending entry after the caller gave up on it.
func (c *tcpClient) withdraw(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// call sends one request over the coalesced connection. The
// payload is encoded outside every lock; only the small header encode
// (which must be ordered with method interning) runs under the
// coalescer lock. Appending never blocks — a wedged connection is the
// flusher's problem — so the caller goes straight to the response wait,
// and context expiry resolves through the coalescer's frame-fate
// trichotomy: excised (nothing sent, connection lives), flushed
// (response will be dropped, connection lives), or inflight (stream
// integrity unknown, connection dies and the cache redials).
func (c *tcpClient) call(ctx context.Context, req request) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	payload := wire.GetBuf()
	pb, err := AppendPayload((*payload)[:0], req.Arg)
	if err != nil {
		wire.PutBuf(payload)
		return nil, err
	}
	*payload = pb
	// Large payload encodes take real time; don't enqueue a frame the
	// caller has already abandoned.
	if err := ctx.Err(); err != nil {
		wire.PutBuf(payload)
		return nil, err
	}

	ch, err := c.register(&req)
	if err != nil {
		wire.PutBuf(payload)
		return nil, err
	}
	frameID, err := c.co.append(func(b []byte) []byte {
		return appendRequestFrame(b, &c.co.scratch, &c.co.methods, &req, *payload)
	})
	wire.PutBuf(payload)
	if err != nil {
		c.withdraw(req.ID)
		return nil, fmt.Errorf("orb: send: %w", err)
	}

	select {
	case resp := <-ch:
		replyPool.Put(ch)
		return resp.Result, decodeErr(resp.ErrKind, resp.ErrMsg)
	case <-ctx.Done():
		c.withdraw(req.ID)
		if c.co.cancel(frameID) == cancelInflight {
			// Bytes of this frame may be half-written: the stream is
			// unusable, so the whole client is closed; pending calls fail
			// fast and the Runtime's eviction hook forces a redial.
			c.close(fmt.Errorf("orb: send aborted: %w", ctx.Err()))
		}
		return nil, ctx.Err()
	}
}

// client returns (dialing if necessary) the shared client for addr.
// Dead clients are evicted eagerly by their close hook; the liveness
// check here remains as a backstop against races.
func (rt *Runtime) client(addr string) (*tcpClient, error) {
	rt.clientsMu.Lock()
	defer rt.clientsMu.Unlock()
	if c, ok := rt.clients[addr]; ok {
		c.mu.Lock()
		dead := c.err != nil
		c.mu.Unlock()
		if !dead {
			return c, nil
		}
		delete(rt.clients, addr)
	}
	c, err := dialClient(addr, func(dead *tcpClient) {
		rt.clientsMu.Lock()
		if rt.clients[addr] == dead {
			delete(rt.clients, addr)
		}
		rt.clientsMu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	rt.clients[addr] = c
	return c, nil
}

func (rt *Runtime) callRemote(ctx context.Context, addr string, target loid.LOID, method string, arg any) (any, error) {
	reg := rt.Metrics()
	start := time.Now()
	res, err := rt.callRemoteRaw(ctx, addr, target, method, arg)
	reg.Histogram("legion_orb_client_seconds", telemetry.LatencyBuckets,
		"method", method).ObserveSince(start)
	if err != nil {
		reg.Counter("legion_orb_client_errors_total", "method", method).Inc()
	}
	return res, err
}

func (rt *Runtime) callRemoteRaw(ctx context.Context, addr string, target loid.LOID, method string, arg any) (any, error) {
	c, err := rt.client(addr)
	if err != nil {
		return nil, err
	}
	req := request{
		Target: target,
		Method: method,
		Arg:    arg,
	}
	if sc, ok := telemetry.SpanFromContext(ctx); ok {
		req.TraceID, req.SpanID = sc.TraceID, sc.SpanID
	}
	if d, ok := ctx.Deadline(); ok {
		req.Deadline = d.UnixNano()
	}
	return c.call(ctx, req)
}

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
	TraceID  uint64
	SpanID   uint64
	Deadline int64

	// span is "rpc/"+Method, taken from the connection's method table on
	// the serving side; it does not cross the wire.
	span string
}

// response is a reply's header; the payload after it is copied into the
// caller's slot. lost is set instead when the connection failed before
// the reply came: it never crosses the wire.
type response struct {
	ID      uint64
	ErrMsg  string
	ErrKind int // see errKinds
	lost    error
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
		c.close(errors.New("runtime closed"))
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

// process runs one request whose argument the frame's handler decoded:
// span re-parenting, propagated-deadline enforcement, Call's hooks in
// Call's order, the call, server-side metrics. call runs the method on
// the target route resolved: it reports encoded when it left the reply's
// payload in *f.buf, and process encodes res there otherwise.
func (f *frame) process(call func(ctx context.Context, h *callHooks, obj Object, addr string) (res any, encoded bool, err error)) error {
	s, req := f.s, &f.req
	ctx := telemetry.WithRemoteParent(s.ctx,
		telemetry.SpanContext{TraceID: req.TraceID, SpanID: req.SpanID})
	h := s.rt.hooks.Load()
	reg := h.metrics
	ctx, span := reg.Spans().Start(ctx, h.clock, req.span, s.rt.Domain())
	label := s.methodLabel(req.Method)
	var res any
	var encoded bool
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
			ctx = vclock.Wall.WithDeadline(ctx, dl)
			defer vclock.End(ctx)
		}
	}
	if err == nil {
		res, err = traced(s.rt, h, req.Target, req.Method, func() (any, error) {
			obj, addr, err := s.rt.route(ctx, h, req.Target, req.Method)
			if err != nil {
				return nil, err
			}
			var res any
			res, encoded, err = call(ctx, h, obj, addr)
			return res, err
		})
		if label == unknownMethod && !errors.Is(err, ErrNoMethod) && !errors.Is(err, ErrNotBound) &&
			s.earnLabel(req.Method) {
			label = req.Method
		}
	}
	reg.Histogram("legion_orb_server_seconds", telemetry.LatencyBuckets,
		"method", label).Observe(span.Finish(err).Seconds())
	if err != nil {
		reg.Counter("legion_orb_server_errors_total", "method", label).Inc()
	}
	if !encoded || err != nil {
		*f.buf, err = appendReply((*f.buf)[:0], res, err)
	}
	return err
}

// appendReply appends the payload that answers a call: res, or nil with
// the encode error when res has no encoding.
func appendReply(b []byte, res any, err error) ([]byte, error) {
	pb, perr := AppendPayload(b, res)
	if perr != nil {
		pb, _ = AppendPayload(b, nil)
		return pb, perr
	}
	return pb, err
}

// frameEnd is the error for a request frame with bytes left in r after
// its payload, or nil.
func frameEnd(r *wire.Reader) error {
	if len(r.B) == 0 {
		return nil
	}
	return fmt.Errorf("orb: request frame has %d trailing bytes", len(r.B))
}

// errServerShed is the server's refusal when its handler pool is full.
var errServerShed = fmt.Errorf("%w by orb server", ErrOverload)

// shed records and reports a refused frame. The handler pool is full:
// responding immediately (instead of queueing) gives the caller a typed
// permanent refusal its retry policy will not amplify.
func (s *tcpServer) shed(method string) error {
	s.rt.Metrics().Counter("legion_orb_server_overload_total",
		"method", s.methodLabel(method)).Inc()
	return errServerShed
}

// serveBinary is the wire protocol: length-prefixed frames, a
// per-connection method table built as frames arrive, handler
// goroutines bounded by the server-wide limiter, and responses
// coalesced into batched writes.
func (s *tcpServer) serveBinary(conn net.Conn) {
	co := newCoalescer(conn, func(error) { conn.Close() })
	var mt methodTable
	br := bufio.NewReaderSize(conn, 64<<10)
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxFrameLen {
			return
		}
		f, _ := framePool.Get().(*frame)
		if f == nil {
			f = new(frame)
			f.run = f.serve
		}
		f.buf = wire.GetBuf()
		if uint64(cap(*f.buf)) < n {
			*f.buf = make([]byte, n)
		}
		*f.buf = (*f.buf)[:n]
		if _, err := io.ReadFull(br, *f.buf); err != nil {
			return
		}
		// Only the header is decoded here: method-table updates must apply
		// in frame order. The frame's reader is left at the payload, for
		// the handler to decode through the method that serves it.
		f.r.Reset(*f.buf)
		if f.req, err = decodeRequestHeader(&f.r, &mt); err != nil {
			return // corrupt header: the stream is unrecoverable
		}
		f.s, f.co, f.wg = s, co, &reqWG
		reqWG.Add(1)
		if !s.lim.TryGo(f.run) {
			reqWG.Done()
			f.answer(f.refuse(s.shed(f.req.Method)))
		}
	}
}

// frame is one request from its read loop to its reply. Frames are
// pooled, and run is bound to serve once, when the frame is made, so
// admitting a frame allocates nothing. buf is a pooled buffer that holds
// the frame's body as read, and then the reply's payload; r reads the
// body, the header on the read loop and the payload on the handler.
type frame struct {
	s   *tcpServer
	co  *coalescer
	wg  *sync.WaitGroup
	req request
	buf *[]byte
	r   wire.Reader
	run func()
}

// framePool has no New: serve puts frames back in it, so a New that
// bound serve would make its initializer refer to itself.
var framePool sync.Pool

// serve handles the frame's request and answers it.
func (f *frame) serve() {
	wg := f.wg
	f.answer(f.handle())
	wg.Done()
}

// handle resolves the frame's method once, decodes the payload through
// it, and serves it: an entry with a wire form decodes an A, and any
// other decodes boxed. A payload that fails to decode is answered with
// the decode error before any hook runs.
func (f *frame) handle() error {
	e := f.s.rt.entryOf(f.req.Target, f.req.Method)
	if e.wire != nil {
		return e.wire.serve(f, e)
	}
	return f.serveBoxed(e)
}

// serveBoxed decodes the frame's payload boxed and serves it: on e's
// entry when the call routes to e's ServiceObject, as Call does
// otherwise.
func (f *frame) serveBoxed(e entry) error {
	arg, err := DecodePayload(&f.r)
	if err == nil {
		err = frameEnd(&f.r)
	}
	if err != nil {
		return f.refuse(err)
	}
	return f.process(func(ctx context.Context, h *callHooks, obj Object, addr string) (any, bool, error) {
		if e.serves(h, obj) {
			res, err := e.call(ctx, arg)
			return res, false, err
		}
		res, err := f.s.rt.dispatch(ctx, h, obj, addr, f.req.Target, f.req.Method, arg)
		return res, false, err
	})
}

// refuse leaves the nil payload that answers a refused frame in *f.buf,
// and returns err.
func (f *frame) refuse(err error) error {
	*f.buf, err = appendReply((*f.buf)[:0], nil, err)
	return err
}

// answer appends the frame's response, the payload in *f.buf and err the
// error the call ended with, and puts the frame and its buffer back: a
// pooled frame pins nothing.
func (f *frame) answer(err error) {
	kind, msg := encodeErr(err)
	f.co.append(func(b []byte) []byte {
		return appendResponseFrame(b, &f.co.scratch, f.req.ID, kind, msg, *f.buf)
	})
	wire.PutBuf(f.buf)
	f.s, f.co, f.wg, f.req, f.buf = nil, nil, nil, request{}, nil
	f.r.Reset(nil)
	framePool.Put(f)
}

// tcpClient multiplexes calls to one remote runtime over one connection.
type tcpClient struct {
	conn net.Conn

	// Frames coalesce into batched writes.
	co *coalescer

	onClose func(*tcpClient) // eviction hook, run once on first close

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*callSlot
	err     error
}

func dialClient(addr string, onClose func(*tcpClient)) (*tcpClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %w", ErrUnreachable, addr, err)
	}
	if _, err := conn.Write(preamble[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: preamble %s: %w", ErrUnreachable, addr, err)
	}
	c := &tcpClient{
		conn:    conn,
		onClose: onClose,
		pending: make(map[uint64]*callSlot),
	}
	c.co = newCoalescer(conn, func(err error) {
		c.close(fmt.Errorf("send: %w", err))
	})
	go c.readLoopBinary()
	return c, nil
}

func (c *tcpClient) readLoopBinary() {
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var body []byte
	var r wire.Reader
	for {
		n, err := binary.ReadUvarint(br)
		if err != nil || n > maxFrameLen {
			if err == nil {
				err = fmt.Errorf("response frame of %d bytes exceeds limit", n)
			} else if err == io.EOF {
				err = errors.New("closed by peer")
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
		r.Reset(body)
		resp, err := decodeResponseHeader(&r)
		if err != nil {
			c.close(fmt.Errorf("decode response: %w", err))
			return
		}
		// The payload is copied into its waiting caller's slot, for the
		// caller to decode; one for a withdrawn ID (the caller gave up) is
		// dropped.
		c.mu.Lock()
		s, ok := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ok {
			if s.reply == nil {
				s.reply = wire.GetBuf()
			}
			*s.reply = append((*s.reply)[:0], r.B...)
			s.resp = resp
			s.ch <- struct{}{}
		}
	}
}

// close fails all pending calls with ErrConnLost, marks the client
// dead, and (once) runs the eviction hook so the owning Runtime drops it
// from the client cache — the next call to this address redials instead
// of failing forever on a dead connection.
func (c *tcpClient) close(err error) {
	c.conn.Close()
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = fmt.Errorf("%w: %w", ErrConnLost, err)
	}
	for id, s := range c.pending {
		delete(c.pending, id)
		s.resp = response{lost: c.err}
		s.ch <- struct{}{}
	}
	onClose := c.onClose
	c.mu.Unlock()
	// Outside c.mu: the hook takes the Runtime's clientsMu, which other
	// goroutines hold while taking c.mu (lock-order discipline).
	if first && onClose != nil {
		onClose(c)
	}
}

// callSlot is one remote call's reply slot. The read loop, or close,
// leaves the reply's header in resp and its payload in reply, copied off
// the read loop's own buffer, and then signals ch; the caller decodes
// the payload with r. ch has capacity 1, so neither ever blocks on a
// caller that gave up, and carries no value, so making it is one
// allocation. reply is borrowed from wire's buffer pool on the slot's
// first reply and kept with the slot. Slots are pooled. A slot goes back
// only after its caller decoded a reply from it: by then it has left
// pending and its one send is consumed, so nobody else holds it. A
// caller that did not receive on its slot drops it, because the read
// loop or close may already have taken it out of pending and be about
// to write to it.
type callSlot struct {
	ch    chan struct{}
	resp  response
	reply *[]byte
	r     wire.Reader
}

var slotPool = sync.Pool{New: func() any { return &callSlot{ch: make(chan struct{}, 1)} }}

// keptBufMax bounds the buffer a pooled call slot keeps, as wire.PutBuf
// bounds what its pool keeps: one giant reply must not pin its memory
// for as long as the slot is in use.
const keptBufMax = 1 << 20

// release puts the slot back, with its buffer unless that grew too big.
func (s *callSlot) release() {
	s.resp = response{}
	s.r.Reset(nil)
	if cap(*s.reply) > keptBufMax {
		s.reply = nil
	}
	slotPool.Put(s)
}

// register allocates a request ID and files s as its reply slot.
func (c *tcpClient) register(req *request, s *callSlot) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	c.nextID++
	req.ID = c.nextID
	c.pending[req.ID] = s
	return nil
}

// withdraw removes a pending entry after the caller gave up on it.
func (c *tcpClient) withdraw(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// call sends one request, its payload encoded in *payload, which call
// puts back, over the coalesced connection, and waits for the response
// on s; the reply's payload is then in *s.reply. Only the small header
// encode (which must be ordered with method interning) runs under the
// coalescer lock.
// Appending never blocks — a wedged connection is the flusher's problem
// — so the caller goes straight to the response wait, and context
// expiry resolves through the coalescer's frame-fate trichotomy: excised
// (nothing sent, connection lives), flushed (response will be dropped,
// connection lives), or inflight (stream integrity unknown, connection
// dies and the cache redials).
func (c *tcpClient) call(ctx context.Context, req request, payload *[]byte, s *callSlot) (response, error) {
	// Large payload encodes take real time; don't enqueue a frame the
	// caller has already abandoned.
	if err := ctx.Err(); err != nil {
		wire.PutBuf(payload)
		return response{}, err
	}
	if err := c.register(&req, s); err != nil {
		wire.PutBuf(payload)
		return response{}, err
	}
	frameID, err := c.co.append(func(b []byte) []byte {
		return appendRequestFrame(b, &c.co.scratch, &c.co.methods, &req, *payload)
	})
	wire.PutBuf(payload)
	if err != nil {
		c.withdraw(req.ID)
		return response{}, fmt.Errorf("%w: send: %w", ErrConnLost, err)
	}

	select {
	case <-s.ch:
		return s.resp, s.resp.lost
	case <-ctx.Done():
		c.withdraw(req.ID)
		if c.co.cancel(frameID) == cancelInflight {
			// Bytes of this frame may be half-written: the stream is
			// unusable, so the whole client is closed; pending calls fail
			// fast and the Runtime's eviction hook forces a redial.
			c.close(fmt.Errorf("send aborted: %w", ctx.Err()))
		}
		return response{}, ctx.Err()
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
	return remote(ctx, rt, addr, target, method, func(b []byte) ([]byte, error) {
		return AppendPayload(b, arg)
	}, decodeBoxedReply)
}

// invokeRemote is callRemote for Invoke when A and R have codecs: arg is
// appended through ac, and the reply decoded through rc.
func invokeRemote[R, A any](ctx context.Context, rt *Runtime, addr string, target loid.LOID, method string, arg A, ac *typedCodec[A], rc *typedCodec[R]) (R, error) {
	return remote(ctx, rt, addr, target, method, func(b []byte) ([]byte, error) {
		return ac.append(b, arg), nil
	}, func(r *wire.Reader, callErr error) (R, error) {
		return decodeReply(rc, r, callErr)
	})
}

// remote is the one round trip of a remote call, observed as a client
// call: encode appends the argument's payload, and decode reads the
// reply's from the call's slot on the caller's goroutine, with callErr
// the error the callee answered. A reply that fails to decode fails this
// call alone: the frame around it was whole, so the connection serves
// on.
func remote[R any](ctx context.Context, rt *Runtime, addr string, target loid.LOID, method string,
	encode func(b []byte) ([]byte, error), decode func(r *wire.Reader, callErr error) (R, error)) (res R, err error) {
	start := rt.Clock().Now()
	defer func() { rt.observeClient(method, start, err) }()
	req := request{Target: target, Method: method}
	c, err := rt.request(ctx, addr, &req)
	if err != nil {
		return res, err
	}
	payload := wire.GetBuf()
	if *payload, err = encode((*payload)[:0]); err != nil {
		wire.PutBuf(payload)
		return res, err
	}
	s := slotPool.Get().(*callSlot)
	resp, err := c.call(ctx, req, payload, s)
	if err != nil {
		return res, err
	}
	s.r.Reset(*s.reply)
	res, err = decode(&s.r, decodeErr(resp.ErrKind, resp.ErrMsg))
	s.release()
	return res, err
}

// observeClient records a remote call that started at start.
func (rt *Runtime) observeClient(method string, start time.Time, err error) {
	reg := rt.Metrics()
	reg.Histogram("legion_orb_client_seconds", telemetry.LatencyBuckets,
		"method", method).Observe(rt.Clock().Since(start).Seconds())
	if err != nil {
		reg.Counter("legion_orb_client_errors_total", "method", method).Inc()
	}
}

// decodeBoxedReply is Call's reply, read by DecodePayload: callErr, when
// the callee answered one, else the decode's error.
func decodeBoxedReply(r *wire.Reader, callErr error) (any, error) {
	res, err := DecodePayload(r)
	if callErr != nil {
		return res, callErr
	}
	return res, err
}

// decodeReply is As for a reply read from r, with callErr the error the
// call ended with: an R decodes through rc, and a reply of another type,
// or nil, is As's error. A reply that fails to decode is DecodePayload's
// error, unless the callee answered one.
func decodeReply[R any](rc *typedCodec[R], r *wire.Reader, callErr error) (R, error) {
	v, ok, err := rc.decodeTagged(r)
	if !ok {
		var res any
		if res, err = DecodePayload(r); err == nil {
			return As[R](res, callErr)
		}
	}
	if err != nil {
		var zero R
		if callErr == nil {
			callErr = err
		}
		return zero, callErr
	}
	return v, callErr
}

// request dials (or reuses) the client for addr and fills in the rest
// of req's header: the caller's span and deadline. It fails with the
// context's error once the caller has given up.
func (rt *Runtime) request(ctx context.Context, addr string, req *request) (*tcpClient, error) {
	c, err := rt.client(addr)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if sc, ok := telemetry.SpanFromContext(ctx); ok {
		req.TraceID, req.SpanID = sc.TraceID, sc.SpanID
	}
	if d, ok := ctx.Deadline(); ok {
		req.Deadline = d.UnixNano()
	}
	return c, nil
}

package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"causalshare/internal/telemetry"
)

// TCPNet is a Network over real TCP loopback sockets. Every attached node
// runs a listener on 127.0.0.1; a shared registry maps ids to addresses.
// Frames are length-prefixed: [uvarint fromLen][from][uvarint bodyLen][body].
//
// TCPNet provides reliable FIFO per sender-receiver pair (TCP semantics),
// so it exhibits less reordering than ChanNet with faults; integration
// tests use it to prove the broadcast stack runs over actual sockets.
//
// With a positive FlushWindow each outbound peer gathers small frames in a
// write buffer that a per-peer flusher drains in one Write (a writev-style
// batch), trading up to one window of latency for far fewer syscalls under
// load. The default window of zero keeps every Send a synchronous single
// write.
type TCPNet struct {
	cfg    TCPConfig
	dice   *faultDice
	faulty bool
	ins    *netInstruments
	parts  *partitionSet
	mu     sync.Mutex
	nodes  map[string]*tcpConn
	closed bool
}

// TCPConfig tunes a TCPNet.
type TCPConfig struct {
	// FlushWindow is how long a peer writer may gather frames before
	// flushing them in one write. Zero (the default) makes every Send
	// write synchronously and report write errors directly; a positive
	// window batches, and write errors surface on a later Send to the
	// same peer.
	FlushWindow time.Duration

	// Faults injects drop/dup/delay at the send path, before any bytes hit
	// the socket, using the same FaultModel and dice as ChanNet. Delayed
	// and duplicated frames are re-sent on their own goroutines, so a
	// positive delay (or a duplicate) breaks TCP's per-pair FIFO ordering —
	// which is the point: it forces the causal layer to buffer.
	Faults FaultModel

	// Telemetry, when non-nil, registers the transport instruments there.
	Telemetry *telemetry.Registry
}

// flushBytes caps how much a peer buffer may gather before the sender
// flushes inline regardless of the window.
const flushBytes = 64 << 10

var _ Network = (*TCPNet)(nil)

// NewTCPNet constructs an empty TCP loopback network with synchronous
// (unbatched) writes.
func NewTCPNet() *TCPNet { return NewTCPNetWithConfig(TCPConfig{}) }

// NewTCPNetWithConfig constructs an empty TCP loopback network with the
// given tuning.
func NewTCPNetWithConfig(cfg TCPConfig) *TCPNet {
	return &TCPNet{
		cfg:    cfg,
		dice:   newFaultDice(cfg.Faults.Seed),
		faulty: cfg.Faults.active(),
		ins:    newNetInstruments(cfg.Telemetry),
		parts:  newPartitionSet(),
		nodes:  make(map[string]*tcpConn),
	}
}

// Partition blocks (or with block=false, heals) traffic between a and b in
// both directions. Frames already written to a socket are unaffected; the
// block is enforced on the send path, before any bytes hit the wire, so
// it works identically to ChanNet's for the chaos harness.
func (n *TCPNet) Partition(a, b string, block bool) { n.parts.set(a, b, block) }

// PartitionOneWay blocks (or heals) only the from→to direction (see
// ChanNet.PartitionOneWay).
func (n *TCPNet) PartitionOneWay(from, to string, block bool) {
	n.parts.setOneWay(from, to, block)
}

// Heal removes all partitions.
func (n *TCPNet) Heal() { n.parts.clear() }

// Isolate partitions id away from every currently attached peer (the
// chaos harness's crash model; see ChanNet.Isolate).
func (n *TCPNet) Isolate(id string) {
	for _, other := range n.IDs() {
		if other != id {
			n.parts.set(id, other, true)
		}
	}
}

// Restore removes every partition involving id, one-way blocks included.
func (n *TCPNet) Restore(id string) { n.parts.clearFor(id) }

// Attach implements Network: it starts a listener for id.
func (n *TCPNet) Attach(id string) (Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, dup := n.nodes[id]; dup {
		return nil, fmt.Errorf("transport: id %q already attached", id)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("transport: listen for %q: %w", id, err)
	}
	c := &tcpConn{
		id:      id,
		net:     n,
		ln:      ln,
		box:     newMailbox(),
		peers:   make(map[string]*tcpPeer),
		inbound: make(map[net.Conn]struct{}),
	}
	c.wg.Add(1)
	go c.acceptLoop()
	n.nodes[id] = c
	return c, nil
}

// IDs implements Network.
func (n *TCPNet) IDs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	return out
}

// Close implements Network.
func (n *TCPNet) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*tcpConn, 0, len(n.nodes))
	for _, c := range n.nodes {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	return nil
}

func (n *TCPNet) addrOf(id string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	c, ok := n.nodes[id]
	if !ok {
		return "", false
	}
	return c.ln.Addr().String(), true
}

// tcpPeer is one outbound connection plus its gather buffer and flusher.
type tcpPeer struct {
	conn net.Conn
	ins  *netInstruments

	// writeMu serializes writes to conn; buffer swaps happen inside it so
	// chunk order equals write order (per-pair FIFO).
	writeMu sync.Mutex

	mu      sync.Mutex
	pending []byte // frames gathered since the last flush
	nframes int    // frames in pending (flush-window occupancy)
	spare   []byte // recycled buffer for the next gather
	err     error  // sticky asynchronous write error

	kick     chan struct{} // signals the flusher that pending is non-empty
	done     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

func newTCPPeer(conn net.Conn, window time.Duration, ins *netInstruments) *tcpPeer {
	p := &tcpPeer{conn: conn, ins: ins}
	if window > 0 {
		p.kick = make(chan struct{}, 1)
		p.done = make(chan struct{})
		p.wg.Add(1)
		go p.flushLoop(window)
	}
	return p
}

// appendWireFrame appends one length-prefixed frame to buf.
func appendWireFrame(buf []byte, from string, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(from)))
	buf = append(buf, from...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	return append(buf, payload...)
}

// enqueue gathers one frame for the flusher. It reports whether the
// caller should flush inline because the buffer ran past flushBytes.
func (p *tcpPeer) enqueue(from string, payload []byte) (inline bool, err error) {
	p.mu.Lock()
	if p.err != nil {
		err = p.err
		p.mu.Unlock()
		return false, err
	}
	wasEmpty := len(p.pending) == 0
	p.pending = appendWireFrame(p.pending, from, payload)
	p.nframes++
	inline = len(p.pending) >= flushBytes
	p.mu.Unlock()
	if wasEmpty && !inline {
		select {
		case p.kick <- struct{}{}:
		default:
		}
	}
	return inline, nil
}

// flush writes everything gathered so far in one Write call.
func (p *tcpPeer) flush() error {
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	p.mu.Lock()
	buf := p.pending
	nframes := p.nframes
	p.pending = p.spare[:0]
	p.nframes = 0
	p.spare = nil
	p.mu.Unlock()
	if len(buf) == 0 {
		p.mu.Lock()
		if p.spare == nil {
			p.spare = buf
		}
		p.mu.Unlock()
		return nil
	}
	p.ins.flushes.Inc()
	p.ins.flushBytes.Observe(float64(len(buf)))
	p.ins.flushFrames.Observe(float64(nframes))
	_, err := p.conn.Write(buf)
	p.mu.Lock()
	p.spare = buf[:0]
	if err != nil && p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	return err
}

func (p *tcpPeer) flushLoop(window time.Duration) {
	defer p.wg.Done()
	timer := time.NewTimer(window)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		select {
		case <-p.kick:
		case <-p.done:
			_ = p.flush()
			return
		}
		timer.Reset(window)
		select {
		case <-timer.C:
		case <-p.done:
			timer.Stop()
			_ = p.flush()
			return
		}
		_ = p.flush()
	}
}

// write sends one frame synchronously (no gather window), using a pooled
// buffer so the combined header+payload costs no allocation.
func (p *tcpPeer) write(from string, payload []byte) error {
	f := NewFrame(len(from) + len(payload) + 2*binary.MaxVarintLen64)
	f.B = appendWireFrame(f.B, from, payload)
	p.writeMu.Lock()
	_, err := p.conn.Write(f.B)
	p.writeMu.Unlock()
	f.Release()
	return err
}

func (p *tcpPeer) stop() {
	p.stopOnce.Do(func() {
		if p.done != nil {
			close(p.done)
			p.wg.Wait()
		}
		_ = p.conn.Close()
	})
}

// tcpConn is TCPNet's Conn.
type tcpConn struct {
	id  string
	net *TCPNet
	ln  net.Listener
	box *mailbox

	mu      sync.Mutex
	peers   map[string]*tcpPeer   // outbound connection cache
	inbound map[net.Conn]struct{} // accepted connections, closed on Close
	closed  bool                  // set by Close; later accepts are refused
	wg      sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

var (
	_ Conn        = (*tcpConn)(nil)
	_ FrameSender = (*tcpConn)(nil)
	_ BatchRecver = (*tcpConn)(nil)
	_ FIFOProber  = (*tcpConn)(nil)
)

func (c *tcpConn) LocalID() string { return c.id }

// FIFO implements FIFOProber: TCP gives per-pair FIFO natively, but any
// active fault model breaks it — delayed and duplicated frames are re-sent
// from their own timer goroutines, so even a constant injected delay races
// the direct write path. Only the fault-free config keeps TCP's promise.
func (c *tcpConn) FIFO() bool { return !c.net.faulty }

func (c *tcpConn) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.mu.Lock()
		if c.closed {
			// Accepted just before the listener closed, after Close swept
			// inbound: nothing would ever close it, and its readLoop would
			// block Close's Wait forever.
			c.mu.Unlock()
			_ = conn.Close()
			continue
		}
		c.inbound[conn] = struct{}{}
		c.wg.Add(1)
		c.mu.Unlock()
		go c.readLoop(conn)
	}
}

func (c *tcpConn) readLoop(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		_ = conn.Close()
		c.mu.Lock()
		delete(c.inbound, conn)
		c.mu.Unlock()
	}()
	r := &byteReaderConn{conn: conn}
	for {
		from, err := readFrameString(r)
		if err != nil {
			return
		}
		body, err := readFrameBytes(r)
		if err != nil {
			return
		}
		if !c.box.put(Envelope{From: from, To: c.id, Payload: body}) {
			return
		}
		c.net.ins.framesDelivered.Inc()
	}
}

// sendOne routes one frame to a peer, rolling the fault dice first. A
// dropped frame succeeds silently (like a real network); duplicated and
// delayed frames are transmitted later from their own copies.
func (c *tcpConn) sendOne(to string, payload []byte) error {
	c.net.ins.framesSent.Inc()
	if c.net.parts.isBlocked(c.id, to) {
		c.net.ins.partitionDropped.Inc()
		return nil // partitions drop silently, like a real network
	}
	if c.net.faulty {
		drop, delay, dup, dupDelay := c.net.dice.roll(c.net.cfg.Faults, c.id, to)
		if drop {
			c.net.ins.faultDropped.Inc()
			return nil
		}
		if dup {
			c.net.ins.faultDuplicated.Inc()
			c.transmitCopyAfter(to, payload, dupDelay)
		}
		if delay > 0 {
			c.net.ins.faultDelayed.Inc()
			c.transmitCopyAfter(to, payload, delay)
			return nil
		}
	}
	return c.transmit(to, payload)
}

// transmitCopyAfter schedules an owned copy of payload for transmission
// after d. Errors on the deferred path are swallowed: from the causal
// layer's perspective the frame was simply lost, which the fault model
// already permits.
func (c *tcpConn) transmitCopyAfter(to string, payload []byte, d time.Duration) {
	body := make([]byte, len(payload))
	copy(body, payload)
	time.AfterFunc(d, func() { _ = c.transmit(to, body) })
}

// transmit pushes one frame to a peer through the configured write path.
func (c *tcpConn) transmit(to string, payload []byte) error {
	p, err := c.peer(to)
	if err != nil {
		return err
	}
	if c.net.cfg.FlushWindow <= 0 {
		if err := p.write(c.id, payload); err != nil {
			c.dropPeer(to, p)
			return fmt.Errorf("transport: write to %q: %w", to, err)
		}
		return nil
	}
	inline, err := p.enqueue(c.id, payload)
	if err != nil {
		c.dropPeer(to, p)
		return fmt.Errorf("transport: write to %q: %w", to, err)
	}
	if inline {
		if err := p.flush(); err != nil {
			c.dropPeer(to, p)
			return fmt.Errorf("transport: write to %q: %w", to, err)
		}
	}
	return nil
}

func (c *tcpConn) Send(to string, payload []byte) error {
	return c.sendOne(to, payload)
}

// SendFrame implements FrameSender. TCP cannot share user-space buffers
// with the kernel, but the frame is still encoded exactly once: each
// peer's copy goes straight into that peer's gather buffer (or a pooled
// write buffer), never through a per-destination re-encode.
// Best-effort fan-out: a dead peer's dial or write error must not sever
// the live ones; the first error is returned after all were attempted.
func (c *tcpConn) SendFrame(tos []string, f *Frame) error {
	var first error
	for _, to := range tos {
		if err := c.sendOne(to, f.B); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// dropPeer forces a re-dial on the next send after a write error.
func (c *tcpConn) dropPeer(to string, p *tcpPeer) {
	c.mu.Lock()
	if c.peers[to] == p {
		delete(c.peers, to)
	}
	c.mu.Unlock()
	p.stop()
}

func (c *tcpConn) peer(to string) (*tcpPeer, error) {
	c.mu.Lock()
	if p, ok := c.peers[to]; ok {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()
	addr, ok := c.net.addrOf(to)
	if !ok {
		return nil, &ErrUnknownPeer{ID: to}
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q: %w", to, err)
	}
	c.mu.Lock()
	if existing, ok := c.peers[to]; ok {
		c.mu.Unlock()
		_ = conn.Close()
		return existing, nil
	}
	p := newTCPPeer(conn, c.net.cfg.FlushWindow, c.net.ins)
	c.peers[to] = p
	c.mu.Unlock()
	return p, nil
}

func (c *tcpConn) Recv() (Envelope, error) { return c.box.get() }

// RecvBatch implements BatchRecver.
func (c *tcpConn) RecvBatch(buf []Envelope) ([]Envelope, error) {
	envs, err := c.box.getBatch(buf)
	if err == nil {
		c.net.ins.recvBatch.Observe(float64(len(envs)))
	}
	return envs, err
}

func (c *tcpConn) Close() error {
	c.closeOnce.Do(func() {
		c.closeErr = c.ln.Close()
		c.mu.Lock()
		c.closed = true
		peers := make([]*tcpPeer, 0, len(c.peers))
		for _, p := range c.peers {
			peers = append(peers, p)
		}
		c.peers = make(map[string]*tcpPeer)
		// Closing accepted connections unblocks their readLoops; without
		// this, Close deadlocks whenever a peer that dialed us closes
		// after us.
		for conn := range c.inbound {
			_ = conn.Close()
		}
		c.mu.Unlock()
		for _, p := range peers {
			p.stop()
		}
		c.box.close()
		c.net.mu.Lock()
		delete(c.net.nodes, c.id)
		c.net.mu.Unlock()
		c.wg.Wait()
	})
	return c.closeErr
}

// byteReaderConn adapts a net.Conn to io.ByteReader for uvarint decoding
// while still allowing bulk reads.
type byteReaderConn struct {
	conn net.Conn
	one  [1]byte
}

func (b *byteReaderConn) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.conn, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}

func (b *byteReaderConn) Read(p []byte) (int, error) { return b.conn.Read(p) }

func readFrameBytes(r *byteReaderConn) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	const maxFrame = 16 << 20
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func readFrameString(r *byteReaderConn) (string, error) {
	b, err := readFrameBytes(r)
	return string(b), err
}

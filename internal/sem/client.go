package sem

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bf"
	"repro/internal/bls"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/gm"
	"repro/internal/mrsa"
	"repro/internal/obs"
	"repro/internal/pairing"
	"repro/internal/repl"
	"repro/internal/wire"
)

// Client is the user-side SEM connection. It multiplexes sequential
// request/response pairs over one TCP connection; methods are safe for
// concurrent use (calls serialize on the connection).
//
// The client tracks wire bytes per operation class, which is how the T2
// communication experiment measures the paper's "160 bits vs 1024 bits"
// claim on the actual protocol rather than on back-of-envelope sizes. The
// accounting lives in obs counters (optionally exported by Instrument);
// Stats keeps presenting the accumulated WireStats view.
//
// Every round trip runs under an operation deadline (SetOpTimeout,
// default 30s), so a hung or glacial SEM fails the call instead of
// stalling the caller forever — Dial's timeout only ever covered the
// connection attempt.
//
// Protocol version: a client constructed by Dial/NewClient negotiates the
// binary v2 protocol on first use (preamble + ack, then binary frames and
// batch support within the server's announced limits). NewClientV1/DialV1
// construct a JSON-only client for servers predating v2 — the server
// serves both on one listener, so this is strictly a compatibility knob.
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	closeOnce sync.Once
	closed    atomic.Bool
	opTimeout time.Duration

	// Protocol state, guarded by mu.
	version    int // 0 until negotiated, then 1 or 2
	maxBatch   int // server's announced per-frame item cap (v2)
	maxFrame   int // server's announced frame cap (v2)
	enc        wire.FrameEncoder
	dec        wire.FrameDecoder
	reqScratch []wire.ReqItem

	pairing *pairing.Params

	statsMu sync.Mutex
	stats   map[Op]*opStats
	reg     *obs.Registry
	latency *obs.Histogram
}

// WireStats accumulates protocol traffic for one operation class.
type WireStats struct {
	Calls         int
	BytesSent     int
	BytesReceived int
	// PayloadReceived counts only the SEM→user payload (the token/half),
	// excluding protocol framing — the quantity the paper compares.
	PayloadReceived int
}

// opStats is the per-op counter set behind WireStats. The counters are
// plain obs metrics; Instrument swaps in registered series.
type opStats struct {
	calls   *obs.Counter
	sent    *obs.Counter
	recv    *obs.Counter
	payload *obs.Counter
}

// defaultOpTimeout bounds one request/response exchange unless
// SetOpTimeout overrides it.
const defaultOpTimeout = 30 * time.Second

// Dial connects to a SEM daemon. pp may be nil when only RSA/admin
// operations will be used. timeout covers the connection attempt; the
// per-operation deadline defaults to 30s (SetOpTimeout adjusts it).
func Dial(addr string, pp *pairing.Params, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial SEM: %w", err)
	}
	return NewClient(conn, pp), nil
}

// NewClient wraps an established connection (tests use net.Pipe). The
// first operation negotiates protocol v2 with the server.
func NewClient(conn net.Conn, pp *pairing.Params) *Client {
	return &Client{
		conn:      conn,
		opTimeout: defaultOpTimeout,
		pairing:   pp,
		stats:     make(map[Op]*opStats),
	}
}

// DialV1 connects to a SEM daemon speaking only the v1 JSON protocol.
func DialV1(addr string, pp *pairing.Params, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial SEM: %w", err)
	}
	return NewClientV1(conn, pp), nil
}

// NewClientV1 wraps an established connection with the legacy JSON
// protocol pinned — no preamble is sent, every op is one JSON frame.
// Batch methods still work, executed as sequential round trips.
func NewClientV1(conn net.Conn, pp *pairing.Params) *Client {
	c := NewClient(conn, pp)
	c.version = 1
	c.maxFrame = wire.MaxFrame
	return c
}

// negotiate runs the v2 preamble exchange once. Callers hold c.mu.
func (c *Client) negotiate() error {
	if c.version != 0 {
		return nil
	}
	if c.opTimeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.opTimeout))
		defer func() { _ = c.conn.SetDeadline(time.Time{}) }()
	}
	if err := wire.WriteV2Hello(c.conn, wire.V2Version); err != nil {
		return fmt.Errorf("sem: send v2 preamble: %w", err)
	}
	version, maxBatch, maxFrame, err := wire.ReadV2Ack(c.conn)
	if err != nil {
		return fmt.Errorf("sem: v2 negotiation: %w", err)
	}
	if version != wire.V2Version {
		return fmt.Errorf("sem: server negotiated unsupported version %d", version)
	}
	c.version = 2
	c.maxBatch = maxBatch
	c.maxFrame = maxFrame
	return nil
}

// Version reports the negotiated protocol version (0 before the first
// operation of a v2-capable client).
func (c *Client) Version() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// MaxBatch reports the server's announced per-frame batch limit (0 before
// negotiation or on a v1 connection). Larger batches passed to the batch
// methods are split transparently.
func (c *Client) MaxBatch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxBatch
}

// SetOpTimeout changes the per-operation deadline applied to each round
// trip; d ≤ 0 disables deadlines.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opTimeout = d
}

// Instrument exports the client's wire accounting through reg:
// semclient_requests_total / semclient_bytes_sent_total /
// semclient_bytes_received_total / semclient_payload_bytes_total, each
// labelled by op, plus the semclient_roundtrip_seconds histogram. Call it
// before issuing requests — ops already exercised keep counting, but on
// unregistered series.
func (c *Client) Instrument(reg *obs.Registry) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	c.reg = reg
	c.latency = reg.Histogram("semclient_roundtrip_seconds", "full request/response round trip time")
}

// ErrClientClosed is returned by every operation on a client whose Close
// has been called. The pool layer relies on the distinction: an op failing
// with ErrClientClosed means "we tore this connection down ourselves"
// (eviction, shutdown) and is retried on another connection, while a raw
// net error means the peer died.
var ErrClientClosed = errors.New("sem: client closed")

// Close closes the underlying connection. It is idempotent: the first call
// closes the connection and returns its error, later calls return nil.
// Close never waits for an in-flight op — closing the conn wakes a blocked
// read, and that op then fails with ErrClientClosed.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() {
		c.closed.Store(true)
		err = c.conn.Close()
	})
	return err
}

// checkOpen reports ErrClientClosed once Close has run.
func (c *Client) checkOpen() error {
	if c.closed.Load() {
		return ErrClientClosed
	}
	return nil
}

// opError converts a transport failure into ErrClientClosed when the client
// was closed while the op was in flight (the conn error is then our own
// teardown, not the peer's). Server-answered errors pass through: the
// exchange completed before the teardown.
func (c *Client) opError(err error) error {
	if err != nil && c.closed.Load() && !errors.Is(err, ErrRemote) {
		return ErrClientClosed
	}
	return err
}

// getStats returns (creating if needed) the counter set for op, plus the
// round-trip histogram (nil until Instrument; nil histograms record
// nothing).
func (c *Client) getStats(op Op) (*opStats, *obs.Histogram) {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	st, ok := c.stats[op]
	if !ok {
		l := obs.Label{Key: "op", Value: string(op)}
		// A nil registry hands back live, unregistered counters, so the
		// uninstrumented client needs no separate path.
		st = &opStats{
			calls:   c.reg.Counter("semclient_requests_total", "client requests, by protocol op", l),
			sent:    c.reg.Counter("semclient_bytes_sent_total", "wire bytes sent, by protocol op", l),
			recv:    c.reg.Counter("semclient_bytes_received_total", "wire bytes received, by protocol op", l),
			payload: c.reg.Counter("semclient_payload_bytes_total", "SEM→user payload bytes (excluding framing), by protocol op", l),
		}
		c.stats[op] = st
	}
	return st, c.latency
}

// Stats returns a snapshot of the wire statistics per operation.
func (c *Client) Stats() map[Op]WireStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	out := make(map[Op]WireStats, len(c.stats))
	for op, st := range c.stats {
		out[op] = WireStats{ //cryptolint:public (the operation code is metadata, not key material)
			Calls:           int(st.calls.Value()),
			BytesSent:       int(st.sent.Value()),
			BytesReceived:   int(st.recv.Value()),
			PayloadReceived: int(st.payload.Value()),
		}
	}
	return out
}

// roundTrip performs one request/response exchange over whichever protocol
// version the connection negotiated.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkOpen(); err != nil {
		return nil, err
	}
	if err := c.negotiate(); err != nil {
		return nil, c.opError(err)
	}
	if c.version == 2 {
		resp, err := c.roundTripV2(req)
		return resp, c.opError(err)
	}
	start := time.Now()
	if c.opTimeout > 0 {
		_ = c.conn.SetDeadline(start.Add(c.opTimeout))
	}
	sent, err := writeFrame(c.conn, req, c.maxFrame)
	if err != nil {
		return nil, c.opError(fmt.Errorf("send %s: %w", req.Op, err))
	}
	var resp Response
	recv, err := readFrame(c.conn, &resp, c.maxFrame)
	if err != nil {
		return nil, c.opError(fmt.Errorf("receive %s: %w", req.Op, err))
	}
	if c.opTimeout > 0 {
		_ = c.conn.SetDeadline(time.Time{})
	}
	st, lat := c.getStats(req.Op)
	st.calls.Inc()
	st.sent.Add(uint64(sent))
	st.recv.Add(uint64(recv))
	st.payload.Add(uint64(len(resp.Payload)))
	lat.Observe(time.Since(start))
	if !resp.OK {
		return nil, decodeError(&resp)
	}
	return &resp, nil
}

// v2ByteFor maps a protocol Op to its v2 op byte (0 for ops with no v2
// encoding — there are none today).
func v2ByteFor(op Op) byte {
	switch op {
	case OpIBEToken:
		return v2OpIBEToken
	case OpGDHSign:
		return v2OpGDHSign
	case OpRSADecrypt:
		return v2OpRSADecrypt
	case OpRSASign:
		return v2OpRSASign
	case OpGMDecrypt:
		return v2OpGMDecrypt
	case OpRevoke:
		return v2OpRevoke
	case OpUnrevoke:
		return v2OpUnrevoke
	case OpStatus:
		return v2OpStatus
	case OpList:
		return v2OpList
	case OpPing:
		return v2OpPing
	case OpRegisterIBE:
		return v2OpRegisterIBE
	case OpRegisterGDH:
		return v2OpRegisterGDH
	case OpReplAppend:
		return v2OpReplAppend
	case OpReplSnapshot:
		return v2OpReplSnapshot
	case OpReplStatus:
		return v2OpReplStatus
	default:
		return 0 // no v2 encoding; the server rejects op 0 as bad request
	}
}

// roundTripV2 sends one request as a single-item v2 frame and converts the
// response item back into the v1 Response shape so every public method
// works identically across protocol versions. Callers hold c.mu.
func (c *Client) roundTripV2(req *Request) (*Response, error) {
	opByte := v2ByteFor(req.Op)
	payload := req.Payload
	if req.Op == OpRevoke {
		payload = []byte(req.Reason)
	}
	if cap(c.reqScratch) < 1 {
		c.reqScratch = make([]wire.ReqItem, 1)
	}
	c.reqScratch = c.reqScratch[:1]
	c.reqScratch[0] = wire.ReqItem{ID: []byte(req.ID), Payload: payload}
	items, err := c.exchangeV2(req.Op, opByte, c.reqScratch)
	if err != nil {
		return nil, err
	}
	if len(items) != 1 {
		return nil, fmt.Errorf("%w: v2 response carries %d items, want 1", ErrProtocol, len(items))
	}
	resp := responseFromV2(req.Op, items[0])
	if !resp.OK {
		return nil, decodeError(resp)
	}
	return resp, nil
}

// exchangeV2 writes one v2 frame and reads its response frame, updating
// the wire accounting. The returned items alias the client's decoder and
// are valid until the next exchange; callers hold c.mu and must convert
// before releasing it.
func (c *Client) exchangeV2(op Op, opByte byte, reqs []wire.ReqItem) ([]wire.RespItem, error) {
	start := time.Now()
	if c.opTimeout > 0 {
		_ = c.conn.SetDeadline(start.Add(c.opTimeout))
	}
	frame, err := c.enc.EncodeRequest(opByte, reqs, c.maxFrame)
	if err != nil {
		return nil, fmt.Errorf("encode %s batch: %w", op, err)
	}
	if _, err := c.conn.Write(frame); err != nil {
		return nil, fmt.Errorf("send %s: %w", op, err)
	}
	respOp, items, recv, err := c.dec.ReadResponse(c.conn, c.maxFrame, 0)
	if err != nil {
		return nil, fmt.Errorf("receive %s: %w", op, err)
	}
	if respOp != opByte {
		return nil, fmt.Errorf("%w: v2 response op %#x does not match request op %#x", ErrProtocol, respOp, opByte)
	}
	if c.opTimeout > 0 {
		_ = c.conn.SetDeadline(time.Time{})
	}
	// A single-item error response to a multi-item batch is the server's
	// frame-level refusal (over-batch / over-frame).
	if len(reqs) != 1 && len(items) == 1 && items[0].Status != v2StatusOK {
		return nil, decodeError(responseFromV2(op, items[0]))
	}
	if len(items) != len(reqs) {
		return nil, fmt.Errorf("%w: v2 response carries %d items, want %d", ErrProtocol, len(items), len(reqs))
	}
	st, lat := c.getStats(op)
	st.calls.Add(uint64(len(reqs)))
	st.sent.Add(uint64(len(frame)))
	st.recv.Add(uint64(recv))
	var payloadBytes int
	for i := range items {
		if items[i].Status == v2StatusOK {
			payloadBytes += len(items[i].Data)
		}
	}
	st.payload.Add(uint64(payloadBytes))
	lat.Observe(time.Since(start))
	return items, nil
}

// responseFromV2 converts one v2 response item into the v1 Response shape.
// The data is copied out of the decoder buffer, so the result outlives the
// next exchange.
func responseFromV2(op Op, item wire.RespItem) *Response {
	if item.Status != v2StatusOK {
		return &Response{OK: false, Code: codeForV2Status(item.Status), Error: string(item.Data)}
	}
	if op == OpStatus {
		return &Response{OK: true, Revoked: len(item.Data) == 1 && item.Data[0] == 1}
	}
	return &Response{OK: true, Payload: bytes.Clone(item.Data)}
}

// ErrRemote marks every error the SEM answered over a healthy connection —
// revoked, unknown identity, bad request, internal failure. errors.Is(err,
// ErrRemote) == false therefore means a transport failure (dial, write,
// read, protocol violation), which is the router's cue to fail over to the
// next ring replica; a remote error would only repeat there.
var ErrRemote = errors.New("sem: remote error")

// decodeError maps protocol error codes back onto the typed core errors:
// the returned error's message is the SEM's own message, and errors.Is
// matches the corresponding sentinel as well as ErrRemote.
func decodeError(resp *Response) error {
	switch resp.Code {
	case CodeRevoked:
		return &remoteError{msg: resp.Error, sentinel: core.ErrRevoked}
	case CodeUnknownIdentity:
		return &remoteError{msg: resp.Error, sentinel: core.ErrUnknownIdentity}
	case CodeStaleEpoch:
		return &remoteError{msg: resp.Error, sentinel: repl.ErrStaleEpoch}
	case CodeSeqGap:
		return &remoteError{msg: resp.Error, sentinel: repl.ErrSeqGap}
	case CodeNotLeader:
		return &remoteError{msg: resp.Error, sentinel: repl.ErrNotLeader}
	default:
		return &remoteError{msg: fmt.Sprintf("sem: %s (%s)", resp.Error, resp.Code)}
	}
}

// remoteError carries a SEM-side message while unwrapping to the typed
// sentinel the server classified it as, plus ErrRemote.
type remoteError struct {
	msg      string
	sentinel error // nil when the code has no typed sentinel
}

func (e *remoteError) Error() string { return e.msg }

func (e *remoteError) Unwrap() []error {
	if e.sentinel == nil {
		return []error{ErrRemote}
	}
	return []error{e.sentinel, ErrRemote}
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&Request{Op: OpPing})
	return err
}

// IBEToken requests the decryption token ê(U, d_ID,sem) for a ciphertext's
// U component.
func (c *Client) IBEToken(id string, u *curve.Point) (*pairing.GT, error) {
	if c.pairing == nil {
		return nil, errors.New("sem: client has no pairing params")
	}
	resp, err := c.roundTrip(&Request{Op: OpIBEToken, ID: id, Payload: u.Marshal()})
	if err != nil {
		return nil, err
	}
	// The token comes from the SEM, which the threat model treats as
	// honest-but-curious at best: enforce order-q membership before the
	// value enters the user's decryption arithmetic.
	return wire.UnmarshalGT(c.pairing, resp.Payload)
}

// DecryptIBE runs the user side of the full mediated-IBE decryption
// protocol over the network: request token, pair the user half, open.
func (c *Client) DecryptIBE(pub *bf.PublicParams, key *core.UserKeyHalf, ct *bf.Ciphertext) ([]byte, error) {
	token, err := c.IBEToken(key.ID, ct.U)
	if err != nil {
		return nil, err
	}
	return core.UserDecrypt(pub, key, ct, token)
}

// GDHHalfSign requests the SEM half-signature S_sem = x_sem·h for an
// already-hashed message point.
func (c *Client) GDHHalfSign(id string, h *curve.Point) (*curve.Point, error) {
	if c.pairing == nil {
		return nil, errors.New("sem: client has no pairing params")
	}
	resp, err := c.roundTrip(&Request{Op: OpGDHSign, ID: id, Payload: h.Marshal()})
	if err != nil {
		return nil, err
	}
	// The SEM's half-signature is also untrusted input: a compromised or
	// impersonated SEM must not be able to feed back out-of-subgroup points.
	return wire.UnmarshalG1(c.pairing.Curve(), resp.Payload)
}

// SignGDH runs the user side of the full mediated-GDH signing protocol over
// the network.
// The message is hashed once: the same h(M) goes to the SEM and into the
// user's check of the combined signature.
func (c *Client) SignGDH(key *core.GDHUserKey, msg []byte) (*curve.Point, error) {
	h, err := bls.HashMessage(key.Public.Pairing, msg)
	if err != nil {
		return nil, err
	}
	semHalf, err := c.GDHHalfSign(key.ID, h)
	if err != nil {
		return nil, err
	}
	return core.UserSignHash(key, h, semHalf)
}

// RSAHalfDecrypt requests m_sem = c^{d_sem} mod n. The public key carries
// the modulus the SEM's response is range-checked against.
func (c *Client) RSAHalfDecrypt(pub *mrsa.PublicKey, id string, ciphertext *big.Int) (*big.Int, error) {
	resp, err := c.roundTrip(&Request{Op: OpRSADecrypt, ID: id, Payload: ciphertext.Bytes()}) //cryptolint:public (sanctioned wire serialization edge; the ciphertext is on the wire by design)
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalScalar(resp.Payload, pub.N)
}

// DecryptRSA runs the user side of the mediated-RSA decryption protocol
// over the network.
func (c *Client) DecryptRSA(pub *mrsa.PublicKey, id string, userHalf *mrsa.HalfKey, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) != pub.ModulusBytes() {
		return nil, mrsa.ErrDecrypt
	}
	ci, err := wire.UnmarshalScalar(ciphertext, pub.N)
	if err != nil {
		return nil, mrsa.ErrDecrypt
	}
	semHalf, err := c.RSAHalfDecrypt(pub, id, ci)
	if err != nil {
		return nil, err
	}
	combined := mrsa.Combine(pub.N, userHalf.Op(ci), semHalf)
	return mrsa.FinishDecrypt(pub, combined)
}

// RSAHalfSign requests EMSA(msg)^{d_sem} mod n. The public key carries the
// modulus the SEM's response is range-checked against.
func (c *Client) RSAHalfSign(pub *mrsa.PublicKey, id string, msg []byte) (*big.Int, error) {
	resp, err := c.roundTrip(&Request{Op: OpRSASign, ID: id, Payload: bytes.Clone(msg)})
	if err != nil {
		return nil, err
	}
	return wire.UnmarshalScalar(resp.Payload, pub.N)
}

// SignRSA runs the user side of the mediated-RSA signing protocol over the
// network.
func (c *Client) SignRSA(pub *mrsa.PublicKey, userHalf *mrsa.HalfKey, id string, msg []byte) ([]byte, error) {
	semHalf, err := c.RSAHalfSign(pub, id, msg)
	if err != nil {
		return nil, err
	}
	mine, err := mrsa.SignHalf(userHalf, msg)
	if err != nil {
		return nil, err
	}
	return mrsa.FinishSignature(pub, msg, mine, semHalf)
}

// GMHalfDecrypt requests the SEM half-results for a bitwise GM ciphertext.
func (c *Client) GMHalfDecrypt(id string, cs []*big.Int) ([]*big.Int, error) {
	payload, err := packInts(cs)
	if err != nil {
		return nil, err
	}
	resp, err := c.roundTrip(&Request{Op: OpGMDecrypt, ID: id, Payload: payload})
	if err != nil {
		return nil, err
	}
	halves, err := unpackInts(resp.Payload)
	if err != nil {
		return nil, err
	}
	if len(halves) != len(cs) {
		return nil, fmt.Errorf("sem: GM response has %d elements, want %d", len(halves), len(cs))
	}
	return halves, nil
}

// DecryptGM runs the user side of the mediated Goldwasser-Micali
// decryption protocol over the network.
func (c *Client) DecryptGM(pk *gm.PublicKey, id string, userHalf *gm.HalfKey, cs []*big.Int) ([]byte, error) {
	if len(cs)%8 != 0 {
		return nil, fmt.Errorf("sem: GM ciphertext length %d not a multiple of 8", len(cs))
	}
	semParts, err := c.GMHalfDecrypt(id, cs)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(cs)/8)
	for i, ct := range cs {
		bit, err := gm.CombineBit(pk, userHalf.Op(ct), semParts[i])
		if err != nil {
			return nil, fmt.Errorf("element %d: %w", i, err)
		}
		out[i/8] |= bit << uint(7-i%8)
	}
	return out, nil
}

// Revoke instructs the SEM to revoke an identity.
func (c *Client) Revoke(id, reason string) error {
	_, err := c.roundTrip(&Request{Op: OpRevoke, ID: id, Reason: reason})
	return err
}

// Unrevoke restores an identity.
func (c *Client) Unrevoke(id string) error {
	_, err := c.roundTrip(&Request{Op: OpUnrevoke, ID: id})
	return err
}

// RegisterIBE installs the SEM half of id's mediated IBE key on the
// server. The server must have been started with AllowRegister.
func (c *Client) RegisterIBE(id string, d *curve.Point) error {
	_, err := c.roundTrip(&Request{Op: OpRegisterIBE, ID: id, Payload: d.Marshal()})
	return err
}

// RegisterGDH installs the SEM half of id's GDH signing key on the server.
// The server must have been started with AllowRegister.
func (c *Client) RegisterGDH(id string, x *big.Int) error {
	_, err := c.roundTrip(&Request{Op: OpRegisterGDH, ID: id, Payload: x.Bytes()}) //cryptolint:public (sanctioned wire serialization edge; SEM half delivery is the enrollment protocol)
	return err
}

// RegisterIBEBatch installs k SEM IBE halves in one v2 frame per
// negotiated chunk — the bulk-enrollment path semload uses to seed a
// million identities. errs is index-aligned; err reports a transport
// failure partway through (see batchCall).
func (c *Client) RegisterIBEBatch(ids []string, ds []*curve.Point) ([]error, error) {
	return registerIBEBatch(c, ids, ds)
}

// RegisterGDHBatch installs k SEM GDH halves in one v2 frame per
// negotiated chunk.
func (c *Client) RegisterGDHBatch(ids []string, xs []*big.Int) ([]error, error) {
	return registerGDHBatch(c, ids, xs)
}

// Status reports whether an identity is revoked.
func (c *Client) Status(id string) (bool, error) {
	resp, err := c.roundTrip(&Request{Op: OpStatus, ID: id})
	if err != nil {
		return false, err
	}
	return resp.Revoked, nil
}

// ErrPartialList reports that ListRevoked dropped entries it could not
// parse; the returned slice still carries every valid entry.
var ErrPartialList = errors.New("sem: revocation list contained invalid entries")

// ListRevoked fetches the SEM's full revocation list. A malformed element
// in the server's response does not void the whole call: valid entries are
// returned alongside an ErrPartialList error describing how many were
// dropped, so an operator listing revocations during an incident still
// sees everything parseable.
func (c *Client) ListRevoked() ([]core.RevocationEntry, error) {
	resp, err := c.roundTrip(&Request{Op: OpList})
	if err != nil {
		return nil, err
	}
	return parseRevocationList(resp.Payload)
}

// parseRevocationList decodes a revocation-list payload tolerantly: valid
// entries survive a malformed sibling, which instead surfaces as an
// ErrPartialList error alongside them.
func parseRevocationList(payload []byte) ([]core.RevocationEntry, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(payload, &raw); err != nil {
		return nil, fmt.Errorf("sem: parse revocation list: %w", err)
	}
	entries := make([]core.RevocationEntry, 0, len(raw))
	dropped := 0
	for _, el := range raw {
		var e core.RevocationEntry
		if err := json.Unmarshal(el, &e); err != nil || e.ID == "" {
			dropped++
			continue
		}
		entries = append(entries, e)
	}
	if dropped > 0 {
		return entries, fmt.Errorf("%w: dropped %d of %d", ErrPartialList, dropped, len(raw))
	}
	return entries, nil
}

// batchCall runs one op over k (id, payload) items: a single v2 frame per
// maxBatch-sized chunk on a v2 connection, or sequential round trips on
// v1. Results and errs are index-aligned with the inputs (errs[i] nil on
// success). A transport/protocol failure mid-batch is returned as the
// call error AND stamped into errs[i] for every item the failure voided —
// results from chunks that already completed are kept, so callers get the
// tokens/halves they paid round trips for even when a later chunk dies.
func (c *Client) batchCall(op Op, ids []string, payloads [][]byte) ([][]byte, []error, error) {
	if len(ids) != len(payloads) {
		return nil, nil, fmt.Errorf("sem: batch has %d ids but %d payloads", len(ids), len(payloads))
	}
	results := make([][]byte, len(ids))
	errs := make([]error, len(ids))
	if len(ids) == 0 {
		return results, errs, nil
	}

	c.mu.Lock()
	if err := c.checkOpen(); err != nil {
		c.mu.Unlock()
		return nil, nil, err
	}
	if err := c.negotiate(); err != nil {
		c.mu.Unlock()
		return nil, nil, c.opError(err)
	}
	version := c.version
	c.mu.Unlock()

	if version != 2 {
		// v1 fallback: the batch degrades to sequential calls so callers
		// never need a version switch of their own.
		for i := range ids {
			resp, err := c.roundTrip(&Request{Op: op, ID: ids[i], Payload: payloads[i]})
			if err != nil {
				errs[i] = err
				continue
			}
			results[i] = resp.Payload
		}
		return results, errs, nil
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	opByte := v2ByteFor(op)
	for lo := 0; lo < len(ids); lo += c.maxBatch {
		hi := lo + c.maxBatch
		if hi > len(ids) {
			hi = len(ids)
		}
		n := hi - lo
		if cap(c.reqScratch) < n {
			c.reqScratch = make([]wire.ReqItem, n)
		}
		c.reqScratch = c.reqScratch[:n]
		for i := 0; i < n; i++ {
			c.reqScratch[i] = wire.ReqItem{ID: []byte(ids[lo+i]), Payload: payloads[lo+i]}
		}
		items, err := c.exchangeV2(op, opByte, c.reqScratch)
		if err != nil {
			// The failed chunk and everything after it never produced
			// results; keep the chunks already fetched and mark the rest.
			err = c.opError(err)
			for i := lo; i < len(ids); i++ {
				errs[i] = err
			}
			return results, errs, err
		}
		for i := 0; i < n; i++ {
			if items[i].Status != v2StatusOK {
				errs[lo+i] = decodeError(responseFromV2(op, items[i]))
				continue
			}
			// The item data aliases the decoder buffer; copy it out
			// before the next chunk overwrites it.
			results[lo+i] = bytes.Clone(items[i].Data)
		}
	}
	return results, errs, nil
}

// TokenBatch requests decryption tokens for k (id, U) pairs in one v2
// frame (chunked to the server's negotiated batch limit) and validates the
// returned tokens with a single batched subgroup check — the batch
// counterpart of IBEToken. tokens and errs are index-aligned with the
// inputs; a non-nil err reports a transport failure partway through, in
// which case tokens fetched before the failure are still returned and the
// voided slots carry that error in errs.
func (c *Client) TokenBatch(ids []string, us []*curve.Point) (tokens []*pairing.GT, errs []error, err error) {
	return tokenBatch(c, c.pairing, ids, us)
}

// GDHHalfSignBatch requests SEM half-signatures for k (id, h(M)) pairs in
// one v2 frame — the batch counterpart of GDHHalfSign. Each returned point
// passes the same subgroup validation as the single-op path.
func (c *Client) GDHHalfSignBatch(ids []string, hs []*curve.Point) (halves []*curve.Point, errs []error, err error) {
	return gdhHalfSignBatch(c, c.pairing, ids, hs)
}

// RSAHalfDecryptBatch requests m_sem = c^{d_sem} mod n for k ciphertexts
// in one v2 frame — the batch counterpart of RSAHalfDecrypt. Responses are
// range-checked against the public modulus like the single-op path.
func (c *Client) RSAHalfDecryptBatch(pub *mrsa.PublicKey, ids []string, cts []*big.Int) (halves []*big.Int, errs []error, err error) {
	return rsaHalfDecryptBatch(c, pub, ids, cts)
}

package sweep

import (
	"encoding/binary"
	"fmt"
	"io"

	"faultmem/internal/yield"
)

// Payload codecs. Encodings are hand-rolled big-endian binary with
// length-prefixed variable fields (uint8 for names and tokens, uint32 for
// blobs) and are strict in both directions: decoders validate every
// length against the remaining payload and reject leftover bytes, so a
// corrupted-but-checksum-colliding or maliciously shaped payload fails
// loudly at the decode boundary instead of smuggling garbage into a
// campaign.

// decodeError is a recoverable payload-shape failure: the frame was
// well-delimited, its contents were not.
func decodeError(t MsgType, format string, args ...any) error {
	return &FrameError{Reason: fmt.Sprintf("%v payload: %s", t, fmt.Sprintf(format, args...))}
}

// reader is a bounds-checked cursor over one payload.
type reader struct {
	t   MsgType
	b   []byte
	err error
}

func (r *reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = decodeError(r.t, format, args...)
	}
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("truncated: need %d bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *reader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// str8 reads a uint8-length-prefixed string (names, tags, tokens).
func (r *reader) str8(what string) string {
	n := int(r.u8())
	if r.err != nil {
		return ""
	}
	if len(r.b) < n {
		r.fail("%s length %d exceeds remaining %d bytes", what, n, len(r.b))
		return ""
	}
	return string(r.take(n))
}

// blob32 reads a uint32-length-prefixed byte blob (params JSON, shard
// payloads). The blob is copied so decoded messages never alias the
// connection's read buffer.
func (r *reader) blob32(what string) []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.fail("%s length %d exceeds remaining %d bytes", what, n, len(r.b))
		return nil
	}
	return append([]byte(nil), r.take(n)...)
}

// done rejects leftover bytes — every decoder must consume its payload
// exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return decodeError(r.t, "%d leftover bytes after message", len(r.b))
	}
	return nil
}

func appendStr8(dst []byte, t MsgType, what, s string) []byte {
	if len(s) > 0xFF {
		panic(fmt.Sprintf("sweep: %v %s too long: %d bytes", t, what, len(s)))
	}
	dst = append(dst, byte(len(s)))
	return append(dst, s...)
}

func appendBlob32(dst []byte, b []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// Hello opens a connection. An empty token requests a fresh session; a
// token from a previous Welcome asks the coordinator to resume that
// session (re-binding its in-flight jobs and accepting its buffered
// results). Auth carries the listener's shared secret when one is
// configured; it is an optional trailing field so a pre-auth peer's
// Hello (no Auth bytes) still decodes, and an auth-free deployment's
// wire bytes are unchanged.
type Hello struct {
	Token string
	Auth  string
}

func (m *Hello) encode() []byte {
	b := appendStr8(nil, MsgHello, "token", m.Token)
	if m.Auth != "" {
		b = appendStr8(b, MsgHello, "auth", m.Auth)
	}
	return b
}

func decodeHello(p []byte) (*Hello, error) {
	r := &reader{t: MsgHello, b: p}
	m := &Hello{Token: r.str8("token")}
	if r.err == nil && len(r.b) > 0 {
		m.Auth = r.str8("auth")
	}
	return m, r.done()
}

// Welcome acknowledges a Hello and carries the session token the worker
// presents on reconnect.
type Welcome struct{ Token string }

func (m *Welcome) encode() []byte { return appendStr8(nil, MsgWelcome, "token", m.Token) }

func decodeWelcome(p []byte) (*Welcome, error) {
	r := &reader{t: MsgWelcome, b: p}
	m := &Welcome{Token: r.str8("token")}
	if r.err == nil && m.Token == "" {
		r.fail("empty session token")
	}
	return m, r.done()
}

// Job flag bits.
const (
	jobFlagSeed  = 1 << 0 // Seed field is meaningful
	jobFlagQuick = 1 << 1 // run the experiment's quick budget
)

// Job assigns one shard of a campaign to a worker. Experiment and the
// runner knobs (Seed, Quick, Workers, Accum, Bins, Params) let the worker
// rebuild the campaign's exact stage plan; Tag names the stage within it
// and Shard/Shards pin the one shard to compute. Shards carries the
// coordinator's resolved count so a worker whose own plan would differ
// (machine-dependent defaults) refuses the job instead of returning a
// shard of a different partition.
type Job struct {
	ID         uint64
	Experiment string
	Tag        string
	Shard      int
	Shards     int
	HasSeed    bool
	Seed       int64
	Quick      bool
	Workers    int
	Accum      yield.AccumMode
	Bins       int
	Params     []byte // JSON override, empty = experiment defaults
}

func (m *Job) encode() []byte {
	var flags byte
	if m.HasSeed {
		flags |= jobFlagSeed
	}
	if m.Quick {
		flags |= jobFlagQuick
	}
	b := binary.BigEndian.AppendUint64(nil, m.ID)
	b = appendStr8(b, MsgJob, "experiment", m.Experiment)
	b = appendStr8(b, MsgJob, "tag", m.Tag)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Shard))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Shards))
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Seed))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Workers))
	b = append(b, byte(m.Accum))
	b = binary.BigEndian.AppendUint32(b, uint32(m.Bins))
	return appendBlob32(b, m.Params)
}

func decodeJob(p []byte) (*Job, error) {
	r := &reader{t: MsgJob, b: p}
	m := &Job{}
	m.ID = r.u64()
	m.Experiment = r.str8("experiment name")
	m.Tag = r.str8("tag")
	m.Shard = int(r.u32())
	m.Shards = int(r.u32())
	flags := r.u8()
	m.HasSeed = flags&jobFlagSeed != 0
	m.Quick = flags&jobFlagQuick != 0
	m.Seed = int64(r.u64())
	m.Workers = int(r.u32())
	m.Accum = yield.AccumMode(r.u8())
	m.Bins = int(r.u32())
	m.Params = r.blob32("params")
	if r.err == nil {
		switch {
		case m.Experiment == "":
			r.fail("empty experiment name")
		case m.Shards <= 0:
			r.fail("non-positive shard count %d", m.Shards)
		case m.Shard < 0 || m.Shard >= m.Shards:
			r.fail("shard %d out of range [0,%d)", m.Shard, m.Shards)
		}
	}
	return m, r.done()
}

// Result delivers one computed shard: the gob encoding of the shard's
// value, tagged with the job it answers. Shard rides along redundantly so
// the coordinator can cross-check the binding before merging.
type Result struct {
	ID    uint64
	Shard int
	Data  []byte
}

func (m *Result) encode() []byte {
	b := binary.BigEndian.AppendUint64(nil, m.ID)
	b = binary.BigEndian.AppendUint32(b, uint32(m.Shard))
	return appendBlob32(b, m.Data)
}

func decodeResult(p []byte) (*Result, error) {
	r := &reader{t: MsgResult, b: p}
	m := &Result{}
	m.ID = r.u64()
	m.Shard = int(r.u32())
	m.Data = r.blob32("shard data")
	return m, r.done()
}

// JobError reports that a worker could not compute an assigned shard.
// The coordinator falls back to computing that shard locally.
type JobError struct {
	ID  uint64
	Msg string
}

func (m *JobError) encode() []byte {
	b := binary.BigEndian.AppendUint64(nil, m.ID)
	return appendBlob32(b, []byte(m.Msg))
}

func decodeJobError(p []byte) (*JobError, error) {
	r := &reader{t: MsgJobError, b: p}
	m := &JobError{}
	m.ID = r.u64()
	m.Msg = string(r.blob32("message"))
	return m, r.done()
}

// maxIDList bounds the job-ID lists in heartbeat and cancel messages —
// far above any real in-flight count, small enough that a corrupt length
// cannot force a giant allocation.
const maxIDList = 1 << 16

func appendIDList(dst []byte, t MsgType, ids []uint64) []byte {
	if len(ids) > maxIDList {
		panic(fmt.Sprintf("sweep: %v id list too long: %d", t, len(ids)))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst
}

func (r *reader) idList() []uint64 {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n > maxIDList {
		r.fail("id list length %d exceeds limit %d", n, maxIDList)
		return nil
	}
	if len(r.b) < 8*n {
		r.fail("id list length %d exceeds remaining %d bytes", n, len(r.b))
		return nil
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = r.u64()
	}
	return ids
}

// Heartbeat refreshes the worker's session and the leases of the listed
// in-flight jobs. The coordinator answers with an empty Heartbeat (a
// pong), so a silent-but-alive connection is distinguishable from a dead
// one in both directions.
type Heartbeat struct{ InFlight []uint64 }

func (m *Heartbeat) encode() []byte { return appendIDList(nil, MsgHeartbeat, m.InFlight) }

func decodeHeartbeat(p []byte) (*Heartbeat, error) {
	r := &reader{t: MsgHeartbeat, b: p}
	m := &Heartbeat{InFlight: r.idList()}
	return m, r.done()
}

// Cancel tells a worker to abandon the listed jobs — every in-flight job
// when the list is empty. Sent when a campaign's context dies or a lease
// expired and the shard was reassigned.
type Cancel struct{ IDs []uint64 }

func (m *Cancel) encode() []byte { return appendIDList(nil, MsgCancel, m.IDs) }

func decodeCancel(p []byte) (*Cancel, error) {
	r := &reader{t: MsgCancel, b: p}
	m := &Cancel{IDs: r.idList()}
	return m, r.done()
}

// Done tells a worker the coordinator is shutting down for good: exit
// cleanly instead of reconnecting.
type Done struct{}

func (m *Done) encode() []byte { return nil }

func decodeDone(p []byte) (*Done, error) {
	r := &reader{t: MsgDone, b: p}
	return &Done{}, r.done()
}

// EncodeMessage frames one protocol message.
func EncodeMessage(m Message) []byte {
	return AppendFrame(nil, m.msgType(), m.payload())
}

// WriteMessage frames and writes one protocol message — the sending
// surface for packages layered on top of the wire protocol (the serve
// server and its client live outside this package and cannot reach the
// unexported per-message encoders).
func WriteMessage(w io.Writer, m Message) error {
	return WriteFrame(w, m.msgType(), m.payload())
}

// Message is one decoded protocol message.
type Message interface {
	msgType() MsgType
	payload() []byte
}

func (m *Hello) msgType() MsgType     { return MsgHello }
func (m *Hello) payload() []byte      { return m.encode() }
func (m *Welcome) msgType() MsgType   { return MsgWelcome }
func (m *Welcome) payload() []byte    { return m.encode() }
func (m *Job) msgType() MsgType       { return MsgJob }
func (m *Job) payload() []byte        { return m.encode() }
func (m *Result) msgType() MsgType    { return MsgResult }
func (m *Result) payload() []byte     { return m.encode() }
func (m *JobError) msgType() MsgType  { return MsgJobError }
func (m *JobError) payload() []byte   { return m.encode() }
func (m *Heartbeat) msgType() MsgType { return MsgHeartbeat }
func (m *Heartbeat) payload() []byte  { return m.encode() }
func (m *Cancel) msgType() MsgType    { return MsgCancel }
func (m *Cancel) payload() []byte     { return m.encode() }
func (m *Done) msgType() MsgType      { return MsgDone }
func (m *Done) payload() []byte       { return m.encode() }

// DecodeMessage decodes a validated frame's payload into its message.
// Failures are recoverable *FrameErrors: the frame boundary was sound,
// its contents were not, and the connection survives.
func DecodeMessage(t MsgType, payload []byte) (Message, error) {
	switch t {
	case MsgHello:
		return decodeHello(payload)
	case MsgWelcome:
		return decodeWelcome(payload)
	case MsgJob:
		return decodeJob(payload)
	case MsgResult:
		return decodeResult(payload)
	case MsgJobError:
		return decodeJobError(payload)
	case MsgHeartbeat:
		return decodeHeartbeat(payload)
	case MsgCancel:
		return decodeCancel(payload)
	case MsgDone:
		return decodeDone(payload)
	case MsgClientHello:
		return decodeClientHello(payload)
	case MsgClientWelcome:
		return decodeClientWelcome(payload)
	case MsgSubmit:
		return decodeSubmit(payload)
	case MsgSubmitReply:
		return decodeSubmitReply(payload)
	case MsgJobControl:
		return decodeJobControl(payload)
	case MsgJobInfo:
		return decodeJobInfo(payload)
	case MsgSnapshot:
		return decodeSnapshot(payload)
	case MsgFinal:
		return decodeFinal(payload)
	default:
		return nil, decodeError(t, "no decoder for frame type")
	}
}

// Durable write-ahead log: the record format and its framing. A WAL
// file is
//
//	magic "LGWL", version byte,
//	then zero or more framed records:
//	  u32le payload length, u32le CRC32-C of the payload, payload.
//
// Each payload is one replayable commit keyed by its CommitEpoch:
//
//	delta    — a validated data-variant commit's fact delta (the
//	           CommitDelta footprint writes + removes + adds + oid
//	           counter advance from internal/module);
//	replace  — a whole-state replacement (rule/schema-changing modes
//	           and Materialize), embedded as SaveState bytes;
//	register — a module-library registration, embedded as the module's
//	           canonical source.
//
// Record epochs are strictly sequential; recovery replays records onto
// the latest snapshot in epoch order and treats any framing, checksum,
// decode, or continuity failure as a torn tail: the valid prefix is
// kept, the unreadable suffix quarantined (see store.go).
package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/parser"
)

const (
	walMagic   = "LGWL"
	walVersion = 1
	// walHeaderLen is the file header size: magic + version byte.
	walHeaderLen = int64(len(walMagic) + 1)
	// walFrameLen is the per-record frame overhead: length + checksum.
	walFrameLen = 8
	// maxWALRecord bounds one record's payload; anything larger in a
	// length prefix is corruption, not data.
	maxWALRecord = 1 << 26 // 64 MiB
)

// RecordType discriminates WAL records.
type RecordType byte

const (
	// RecDelta is a fact-level delta commit.
	RecDelta RecordType = 1
	// RecReplace is a whole-state replacement commit.
	RecReplace RecordType = 2
	// RecRegister is a module-library registration.
	RecRegister RecordType = 3
)

func (t RecordType) String() string {
	switch t {
	case RecDelta:
		return "delta"
	case RecReplace:
		return "replace"
	case RecRegister:
		return "register"
	}
	return fmt.Sprintf("unknown(%d)", byte(t))
}

// WALRecord is one replayable commit. Exactly one payload group is
// populated, per Type.
type WALRecord struct {
	Type  RecordType
	Epoch uint64

	// Delta payload: the committed write footprint, the oid-counter
	// advance, and the extensional delta (removes apply before adds,
	// mirroring module.CommitDelta).
	Writes       []string
	CounterDelta int64
	Removes      []engine.Fact
	Adds         []engine.Fact

	// Replace payload: a complete SaveState snapshot of the new state.
	State []byte

	// Register payload: the registered module's canonical source.
	Source string
}

// encodeFrame renders rec as one framed record into buf, which it
// resets first: the frame's header is reserved, the payload encoded
// after it, and the header then filled in over the payload in place.
// The returned frame aliases buf.
func encodeFrame(buf *bytes.Buffer, rec *WALRecord) ([]byte, error) {
	buf.Reset()
	var header [walFrameLen]byte
	buf.Write(header[:])
	w := &writer{w: buf}
	w.byte(byte(rec.Type))
	w.uvarint(rec.Epoch)
	switch rec.Type {
	case RecDelta:
		w.uvarint(uint64(len(rec.Writes)))
		for _, p := range rec.Writes {
			w.str(p)
		}
		w.varint(rec.CounterDelta)
		writeFactList(w, rec.Removes)
		writeFactList(w, rec.Adds)
	case RecReplace:
		w.uvarint(uint64(len(rec.State)))
		w.raw(rec.State)
	case RecRegister:
		w.str(rec.Source)
	default:
		return nil, fmt.Errorf("storage: cannot encode wal record type %d", rec.Type)
	}
	if w.err != nil {
		return nil, w.err
	}
	frame := buf.Bytes()
	sealFrame(frame)
	return frame, nil
}

func writeFactList(w *writer, facts []engine.Fact) {
	w.uvarint(uint64(len(facts)))
	for _, f := range facts {
		w.str(f.Pred)
		writeFact(w, f)
	}
}

// decodeRecord parses one framed payload.
func decodeRecord(payload []byte) (*WALRecord, error) {
	r := &reader{r: bytes.NewReader(payload)}
	t, err := r.byte()
	if err != nil {
		return nil, err
	}
	rec := &WALRecord{Type: RecordType(t)}
	if rec.Epoch, err = r.uvarint(); err != nil {
		return nil, err
	}
	switch rec.Type {
	case RecDelta:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > maxWALRecord {
			return nil, fmt.Errorf("storage: wal delta writes count %d too large", n)
		}
		rec.Writes = make([]string, 0, n)
		for i := uint64(0); i < n; i++ {
			p, err := r.str()
			if err != nil {
				return nil, err
			}
			rec.Writes = append(rec.Writes, p)
		}
		if rec.CounterDelta, err = r.varint(); err != nil {
			return nil, err
		}
		if rec.Removes, err = readFactList(r); err != nil {
			return nil, err
		}
		if rec.Adds, err = readFactList(r); err != nil {
			return nil, err
		}
	case RecReplace:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if n > maxWALRecord {
			return nil, fmt.Errorf("storage: wal replace state %d bytes too large", n)
		}
		rec.State = make([]byte, n)
		if _, err := io.ReadFull(r.r, rec.State); err != nil {
			return nil, err
		}
	case RecRegister:
		if rec.Source, err = r.str(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("storage: unknown wal record type %d", t)
	}
	return rec, nil
}

func readFactList(r *reader) ([]engine.Fact, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxWALRecord {
		return nil, fmt.Errorf("storage: wal fact list length %d too large", n)
	}
	facts := make([]engine.Fact, 0, n)
	for i := uint64(0); i < n; i++ {
		pred, err := r.str()
		if err != nil {
			return nil, err
		}
		f, err := readFact(r, pred)
		if err != nil {
			return nil, err
		}
		facts = append(facts, f)
	}
	return facts, nil
}

// sealFrame fills in the header of a frame whose payload follows it:
// the payload's length and checksum.
func sealFrame(frame []byte) {
	payload := frame[walFrameLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
}

// readFrame reads one framed record from r. It distinguishes a clean
// end (io.EOF with no bytes consumed) from a torn or corrupt record
// (any other failure), returning the payload on success.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [walFrameLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		// A clean EOF before any header byte is the end of the log;
		// a partial header is a torn record.
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxWALRecord {
		return nil, fmt.Errorf("storage: wal record length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if sum := crc32.Checksum(payload, castagnoli); sum != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("storage: wal record checksum mismatch")
	}
	return payload, nil
}

// applyRecord replays one WAL record onto st, returning the successor
// state. Delta and registration records take the state transitions
// their commits took (module.State.WithDelta, module.State.Register), so
// a replayed state's SaveState bytes equal the originally committed
// state's.
func applyRecord(st *module.State, rec *WALRecord) (*module.State, error) {
	switch rec.Type {
	case RecDelta:
		return st.WithDelta(rec.Removes, rec.Adds, rec.CounterDelta), nil
	case RecReplace:
		return LoadState(bytes.NewReader(rec.State))
	case RecRegister:
		m, err := parser.ParseModule(rec.Source)
		if err != nil {
			return nil, fmt.Errorf("storage: replaying registration: %w", err)
		}
		return st.Register(m)
	}
	return nil, fmt.Errorf("storage: cannot replay wal record type %d", rec.Type)
}

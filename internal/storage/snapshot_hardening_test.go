package storage

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

// ---------------------------------------------------------------------------
// Snapshot codec hardening: CRC trailer, typed corruption errors,
// version checks.
// ---------------------------------------------------------------------------

func TestSnapshotChecksumDetectsBitFlips(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every single-byte flip must be rejected, and always as a typed
	// *ErrCorrupt — never a panic, never an untyped io error.
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x01
		_, err := LoadState(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
		var ce *ErrCorrupt
		if !errors.As(err, &ce) {
			// Structural damage can surface as a reparse error (rules
			// are stored as source text) — those carry context too, but
			// byte-level damage to the binary sections must be typed.
			if !bytes.Contains([]byte(err.Error()), []byte("storage:")) &&
				!bytes.Contains([]byte(err.Error()), []byte("parse")) {
				t.Fatalf("flip at %d: untyped error %v", i, err)
			}
		}
	}
}

func TestSnapshotTruncationIsTyped(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		_, err := LoadState(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
		// The raw io sentinel must never escape undressed: truncation is
		// corruption, attributed to an offset.
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			t.Fatalf("truncation at %d surfaced raw %v", cut, err)
		}
		var ce *ErrCorrupt
		if errors.As(err, &ce) {
			if ce.Offset < 0 || ce.Offset > int64(cut) {
				t.Fatalf("truncation at %d attributed to offset %d", cut, ce.Offset)
			}
			// The underlying io error is wrapped, not replaced.
			if ce.Err != nil && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
				t.Fatalf("truncation at %d lost its io cause: %v", cut, err)
			}
		}
	}
}

func TestSnapshotChecksumMismatchDetail(t *testing.T) {
	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip only the trailer: the body decodes fine, the verification
	// must still fail with the mismatch detail.
	mut := append([]byte(nil), full...)
	mut[len(mut)-1] ^= 0xff
	_, err := LoadState(bytes.NewReader(mut))
	var ce *ErrCorrupt
	if !errors.As(err, &ce) {
		t.Fatalf("trailer flip: %v", err)
	}
	if !bytes.Contains([]byte(ce.Detail), []byte("checksum mismatch")) {
		t.Fatalf("detail = %q", ce.Detail)
	}
}

func TestSnapshotBadMagicAndVersion(t *testing.T) {
	_, err := LoadState(bytes.NewReader([]byte("\x04BLAH rest")))
	var ce *ErrCorrupt
	if !errors.As(err, &ce) || !bytes.Contains([]byte(ce.Detail), []byte("bad magic")) {
		t.Fatalf("bad magic: %v", err)
	}

	st := buildState(t)
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The version byte follows the length-prefixed magic. Version 2 (the
	// v3 body without the CRC trailer) is no longer readable either.
	for _, mut := range [][]byte{
		append(append([]byte(nil), full[:5]...), append([]byte{200}, full[6:]...)...),
		append(append([]byte(nil), full[:5]...), append([]byte{2}, full[6:len(full)-4]...)...),
	} {
		_, err = LoadState(bytes.NewReader(mut))
		if !errors.As(err, &ce) || !bytes.Contains([]byte(ce.Detail), []byte("unsupported snapshot version")) {
			t.Fatalf("version %d: %v", mut[5], err)
		}
	}
}

// FuzzLoadState feeds arbitrary bytes to the snapshot decoder: no input
// may panic, and every rejection is a typed *ErrCorrupt or a wrapped
// storage/parse error, as in TestSnapshotChecksumDetectsBitFlips.
func FuzzLoadState(f *testing.F) {
	var buf bytes.Buffer
	if err := SaveState(&buf, buildState(f)); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 5, 6, len(full) / 2, len(full) - 4, len(full) - 1, len(full)} {
		f.Add(full[:cut])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := LoadState(bytes.NewReader(data))
		if err == nil {
			return
		}
		var ce *ErrCorrupt
		if !errors.As(err, &ce) && !strings.Contains(err.Error(), "storage:") &&
			!strings.Contains(err.Error(), "parse") {
			t.Fatalf("untyped rejection: %v", err)
		}
	})
}

func TestErrCorruptFormatting(t *testing.T) {
	base := io.ErrUnexpectedEOF
	e := &ErrCorrupt{Offset: 42, Detail: "fact set", Err: base}
	if !errors.Is(e, io.ErrUnexpectedEOF) {
		t.Fatal("ErrCorrupt does not unwrap its cause")
	}
	if e.Error() == "" || (&ErrCorrupt{Offset: 1, Detail: "x"}).Error() == "" {
		t.Fatal("empty rendering")
	}
	r := &RecoveryError{Offset: 9, Epoch: 3, Quarantine: "q", Detail: "torn", Err: base}
	if !errors.Is(r, io.ErrUnexpectedEOF) {
		t.Fatal("RecoveryError does not unwrap its cause")
	}
	if r.Error() == "" || (&RecoveryError{Detail: "x"}).Error() == "" {
		t.Fatal("empty rendering")
	}
}

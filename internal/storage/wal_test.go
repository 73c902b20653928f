package storage

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"logres/internal/engine"
	"logres/internal/hooks"
	"logres/internal/module"
	"logres/internal/value"
)

// ---------------------------------------------------------------------------
// WAL record codec
// ---------------------------------------------------------------------------

func intFact(pred string, x int) engine.Fact {
	return engine.Fact{Pred: pred, Tuple: value.NewTuple(
		value.Field{Label: "x", Value: value.Int(int64(x))})}
}

// encodeRecord renders a record's payload, everything inside its frame.
func encodeRecord(rec *WALRecord) ([]byte, error) {
	frame, err := encodeFrame(new(bytes.Buffer), rec)
	if err != nil {
		return nil, err
	}
	return frame[walFrameLen:], nil
}

// frameRecord wraps an encoded payload in its on-disk frame.
func frameRecord(payload []byte) []byte {
	frame := make([]byte, walFrameLen+len(payload))
	copy(frame[walFrameLen:], payload)
	sealFrame(frame)
	return frame
}

func TestWALRecordRoundTrip(t *testing.T) {
	recs := []*WALRecord{
		{Type: RecDelta, Epoch: 1, Writes: []string{"p", "q"}, CounterDelta: 3,
			Removes: []engine.Fact{intFact("p", 1)},
			Adds:    []engine.Fact{intFact("p", 2), intFact("q", 9)}},
		{Type: RecReplace, Epoch: 2, State: []byte("opaque snapshot bytes")},
		{Type: RecRegister, Epoch: 3, Source: "module m;\nmode ridv.\nrules p(x: 1).\nend.\n"},
		{Type: RecDelta, Epoch: 4}, // empty delta (registration-like epoch bump)
	}
	for _, rec := range recs {
		payload, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("encode %v: %v", rec.Type, err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("decode %v: %v", rec.Type, err)
		}
		if got.Type != rec.Type || got.Epoch != rec.Epoch {
			t.Fatalf("round trip header: got %v/%d, want %v/%d", got.Type, got.Epoch, rec.Type, rec.Epoch)
		}
		if got.CounterDelta != rec.CounterDelta || len(got.Writes) != len(rec.Writes) ||
			len(got.Removes) != len(rec.Removes) || len(got.Adds) != len(rec.Adds) {
			t.Fatalf("delta payload mismatch: %+v vs %+v", got, rec)
		}
		if !bytes.Equal(got.State, rec.State) || got.Source != rec.Source {
			t.Fatalf("payload mismatch: %+v vs %+v", got, rec)
		}
	}
}

func TestWALFrameRejectsCorruption(t *testing.T) {
	payload, err := encodeRecord(&WALRecord{Type: RecDelta, Epoch: 1, Adds: []engine.Fact{intFact("p", 1)}})
	if err != nil {
		t.Fatal(err)
	}
	frame := frameRecord(payload)
	if got, err := readFrame(bytes.NewReader(frame)); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("clean frame: %v", err)
	}
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		if _, err := readFrame(bytes.NewReader(mut)); err == nil {
			// A flip in the length prefix can still frame correctly only
			// if it points past the buffer — which errors. A flip anywhere
			// else must break the checksum.
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, err := readFrame(bytes.NewReader(frame[:cut])); err == nil {
			t.Fatalf("truncation at %d went undetected", cut)
		}
	}
}

// ---------------------------------------------------------------------------
// Store lifecycle: create, append, recover
// ---------------------------------------------------------------------------

func stateBytes(t *testing.T, st *module.State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveState(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendDelta appends a single-fact delta at the store's next epoch and
// returns the successor state.
func appendDelta(t *testing.T, s *Store, st *module.State, n int) *module.State {
	t.Helper()
	rec := &WALRecord{Type: RecDelta, Epoch: s.Epoch() + 1,
		Writes: []string{"parent"}, Adds: []engine.Fact{intFact("extra", n)}}
	if err := s.Append(rec); err != nil {
		t.Fatal(err)
	}
	next, err := applyRecord(st, rec)
	if err != nil {
		t.Fatal(err)
	}
	return next
}

func TestStoreCreateAppendRecover(t *testing.T) {
	dir := t.TempDir()
	st := buildState(t)
	s, err := Create(dir, st, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := st
	for i := 0; i < 5; i++ {
		want = appendDelta(t, s, want, i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, got, rec, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rec.Tail != nil {
		t.Fatalf("clean log reported tail: %v", rec.Tail)
	}
	if rec.Replayed != 5 || rec.Epoch != 5 || rec.SnapshotEpoch != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	if !bytes.Equal(stateBytes(t, got), stateBytes(t, want)) {
		t.Fatal("recovered state differs from committed state")
	}
	// The replayed records must be carried into the live counters so the
	// compaction trigger does not undercount after a restart.
	if st := s2.Status(); st.WALRecords != 5 || st.WALBytes <= walHeaderLen {
		t.Fatalf("status after recovery = %+v", st)
	}
	// The reopened store continues the epoch sequence.
	if err := s2.Append(&WALRecord{Type: RecDelta, Epoch: 6, Adds: []engine.Fact{intFact("extra", 6)}}); err != nil {
		t.Fatal(err)
	}
	if st := s2.Status(); st.WALRecords != 6 {
		t.Fatalf("WALRecords after post-recovery append = %d, want 6", st.WALRecords)
	}
}

func TestStoreAppendEpochDiscipline(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir, buildState(t), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(&WALRecord{Type: RecDelta, Epoch: 5}); err == nil {
		t.Fatal("append with a gapped epoch succeeded")
	}
	if err := s.Append(&WALRecord{Type: RecDelta, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(&WALRecord{Type: RecDelta, Epoch: 1}); err == nil {
		t.Fatal("duplicate epoch append succeeded")
	}
}

func TestStoreRecoverReplaceAndRegister(t *testing.T) {
	dir := t.TempDir()
	st := buildState(t)
	s, err := Create(dir, st, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Replace with a state carrying a different counter.
	st2 := st.Clone()
	st2.Counter = 99
	if err := s.Append(&WALRecord{Type: RecReplace, Epoch: 1, State: stateBytes(t, st2)}); err != nil {
		t.Fatal(err)
	}
	// Register a module.
	src := "module helper.\nmode ridv.\nrules\n  parent(par: X, chil: X) <- parent(par: X, chil: X).\nend.\n"
	if err := s.Append(&WALRecord{Type: RecRegister, Epoch: 2, Source: src}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, got, rec, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Epoch != 2 || rec.Tail != nil {
		t.Fatalf("recovery = %+v", rec)
	}
	if got.Counter != 99 {
		t.Fatalf("replace not replayed: counter = %d", got.Counter)
	}
	if got.Lib == nil {
		t.Fatal("register not replayed")
	}
	if _, ok := got.Lib.Get("helper"); !ok {
		t.Fatalf("library misses helper: %v", got.Lib.Names())
	}
}

// ---------------------------------------------------------------------------
// Torn tails and corruption
// ---------------------------------------------------------------------------

// buildStoreDir populates a fresh store with n delta records and returns
// the directory, the per-epoch expected Save bytes (index e = state at
// epoch e), and the WAL size.
func buildStoreDir(t *testing.T, n int) (string, [][]byte) {
	t.Helper()
	dir := t.TempDir()
	st := buildState(t)
	s, err := Create(dir, st, StoreOptions{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	expected := [][]byte{stateBytes(t, st)}
	cur := st
	for i := 0; i < n; i++ {
		cur = appendDelta(t, s, cur, i)
		expected = append(expected, stateBytes(t, cur))
	}
	s.Close()
	return dir, expected
}

func TestStoreTornTailTruncation(t *testing.T) {
	dir, expected := buildStoreDir(t, 4)
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(full) - 1; cut > int(walHeaderLen); cut-- {
		if err := os.WriteFile(walPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// Remove quarantine files from earlier iterations.
		qs, _ := filepath.Glob(filepath.Join(dir, "wal.quarantine.*"))
		for _, q := range qs {
			os.Remove(q)
		}
		s, got, rec, err := Open(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("cut %d: fatal recovery: %v", cut, err)
		}
		if int(rec.Epoch) != rec.Replayed {
			t.Fatalf("cut %d: epoch %d != replayed %d", cut, rec.Epoch, rec.Replayed)
		}
		if !bytes.Equal(stateBytes(t, got), expected[rec.Epoch]) {
			t.Fatalf("cut %d: recovered state is not the epoch-%d prefix", cut, rec.Epoch)
		}
		if cut < len(full) {
			// Some suffix was unreadable: either it was past the last
			// complete record boundary of an earlier record... any cut
			// strictly inside the file must lose at least the final
			// record, so a full replay of all 4 is impossible.
			if rec.Epoch == 4 {
				t.Fatalf("cut %d: replayed all records from a truncated log", cut)
			}
			if rec.Tail == nil {
				// A cut exactly on a record boundary looks like a clean
				// shorter log — no tail to report.
				continue
			}
			if rec.Tail.Quarantine != "" {
				if _, err := os.Stat(rec.Tail.Quarantine); err != nil {
					t.Fatalf("cut %d: quarantine missing: %v", cut, err)
				}
			}
			// Recovery must have repaired the log: reopening is clean.
			s.Close()
			s2, got2, rec2, err := Open(dir, StoreOptions{})
			if err != nil {
				t.Fatalf("cut %d: reopen: %v", cut, err)
			}
			if rec2.Tail != nil {
				t.Fatalf("cut %d: repaired log still reports tail: %v", cut, rec2.Tail)
			}
			if !bytes.Equal(stateBytes(t, got2), stateBytes(t, got)) {
				t.Fatalf("cut %d: repaired recovery differs", cut)
			}
			s2.Close()
			continue
		}
		s.Close()
	}
}

func TestStoreBitFlipTail(t *testing.T) {
	dir, expected := buildStoreDir(t, 3)
	walPath := filepath.Join(dir, walName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the final record's frame.
	mut := append([]byte(nil), full...)
	mut[len(mut)-3] ^= 0xff
	if err := os.WriteFile(walPath, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	s, got, rec, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("fatal recovery: %v", err)
	}
	defer s.Close()
	if rec.Tail == nil {
		t.Fatal("bit flip in the final record went unreported")
	}
	var rerr *RecoveryError
	if !errors.As(error(rec.Tail), &rerr) {
		t.Fatalf("tail is %T", rec.Tail)
	}
	if rec.Epoch != 2 {
		t.Fatalf("recovered epoch = %d, want 2 (prefix before the flipped record)", rec.Epoch)
	}
	if !bytes.Equal(stateBytes(t, got), expected[2]) {
		t.Fatal("recovered state is not the valid prefix")
	}
	if rec.Tail.Quarantine == "" {
		t.Fatal("flipped suffix was not quarantined")
	}
	q, err := os.ReadFile(rec.Tail.Quarantine)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(q, mut[rec.Tail.Offset:]) {
		t.Fatal("quarantine does not hold the unreadable suffix")
	}
}

func TestStoreEpochDiscontinuityQuarantined(t *testing.T) {
	dir, expected := buildStoreDir(t, 2)
	// Append a record with a gapped epoch directly to the file.
	payload, err := encodeRecord(&WALRecord{Type: RecDelta, Epoch: 9, Adds: []engine.Fact{intFact("extra", 9)}})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frameRecord(payload)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s, got, rec, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("fatal recovery: %v", err)
	}
	defer s.Close()
	if rec.Tail == nil || rec.Epoch != 2 {
		t.Fatalf("recovery = %+v", rec)
	}
	if !bytes.Equal(stateBytes(t, got), expected[2]) {
		t.Fatal("recovered state is not the valid prefix")
	}
}

func TestStoreCorruptSnapshotFallsBack(t *testing.T) {
	dir, _ := buildStoreDir(t, 2)
	st := buildState(t)
	// Write a newer snapshot, then corrupt it: recovery must fall back
	// to the older epoch-0 snapshot and replay the full WAL.
	snap := filepath.Join(dir, snapName(7))
	b := stateBytes(t, st)
	b[len(b)-1] ^= 0xff // break the CRC trailer
	if err := os.WriteFile(snap, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, rec, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("fatal recovery: %v", err)
	}
	defer s.Close()
	if len(rec.BadSnapshots) != 1 || rec.BadSnapshots[0] != snapName(7) {
		t.Fatalf("bad snapshots = %v", rec.BadSnapshots)
	}
	if rec.SnapshotEpoch != 0 || rec.Epoch != 2 {
		t.Fatalf("recovery = %+v", rec)
	}
}

func TestStoreNoSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(walMagic+"\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err := Open(dir, StoreOptions{})
	var rerr *RecoveryError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want *RecoveryError", err)
	}
}

// ---------------------------------------------------------------------------
// Compaction and point-in-time reads
// ---------------------------------------------------------------------------

func TestStoreCompactionAndAsOf(t *testing.T) {
	dir := t.TempDir()
	st := buildState(t)
	s, err := Create(dir, st, StoreOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var expected [][]byte
	expected = append(expected, stateBytes(t, st))
	cur := st
	for i := 0; i < 6; i++ {
		cur = appendDelta(t, s, cur, i)
		expected = append(expected, stateBytes(t, cur))
	}

	// Every epoch is reachable before compaction.
	for e := uint64(0); e <= 6; e++ {
		got, err := s.AsOf(e)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", e, err)
		}
		if !bytes.Equal(stateBytes(t, got), expected[e]) {
			t.Fatalf("AsOf(%d) state differs", e)
		}
	}
	if _, err := s.AsOf(7); err == nil {
		t.Fatal("AsOf(future) succeeded")
	}

	if err := s.Compact(cur, 6); err != nil {
		t.Fatal(err)
	}
	if st := s.Status(); st.CheckpointEpoch != 6 || st.WALRecords != 0 {
		t.Fatalf("post-compaction status = %+v", st)
	}
	// History below the checkpoint is gone.
	if _, err := s.AsOf(3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("AsOf(compacted) = %v, want ErrCompacted", err)
	}
	if got, err := s.AsOf(6); err != nil || !bytes.Equal(stateBytes(t, got), expected[6]) {
		t.Fatalf("AsOf(checkpoint): %v", err)
	}

	// The store keeps working past the checkpoint, and recovery starts
	// from the new snapshot.
	cur = appendDelta(t, s, cur, 100)
	s.Close()
	_, got, rec, err := Open(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotEpoch != 6 || rec.Epoch != 7 || rec.Replayed != 1 {
		t.Fatalf("post-compaction recovery = %+v", rec)
	}
	if !bytes.Equal(stateBytes(t, got), stateBytes(t, cur)) {
		t.Fatal("post-compaction recovery differs")
	}
}

func TestStoreShouldCompactThreshold(t *testing.T) {
	dir := t.TempDir()
	st := buildState(t)
	s, err := Create(dir, st, StoreOptions{Fsync: FsyncOff, CompactEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cur := st
	for i := 0; i < 2; i++ {
		cur = appendDelta(t, s, cur, i)
		if s.ShouldCompact() {
			t.Fatalf("ShouldCompact at %d records", i+1)
		}
	}
	cur = appendDelta(t, s, cur, 2)
	if !s.ShouldCompact() {
		t.Fatal("ShouldCompact false at threshold")
	}
	if err := s.Compact(cur, 3); err != nil {
		t.Fatal(err)
	}
	if s.ShouldCompact() {
		t.Fatal("ShouldCompact true right after compaction")
	}
}

func TestStoreSnapshotPruning(t *testing.T) {
	dir := t.TempDir()
	st := buildState(t)
	s, err := Create(dir, st, StoreOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cur := st
	for e := uint64(1); e <= 3; e++ {
		cur = appendDelta(t, s, cur, int(e))
		if err := s.Compact(cur, e); err != nil {
			t.Fatal(err)
		}
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("retained snapshots = %v, want newest 2", snaps)
	}
}

// ---------------------------------------------------------------------------
// Fsync policies
// ---------------------------------------------------------------------------

func TestParseFsyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want FsyncPolicy
	}{{"always", FsyncAlways}, {"Interval", FsyncInterval}, {" off ", FsyncOff}} {
		got, err := ParseFsyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Fatal("empty String()")
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy parsed")
	}
}

func TestStoreFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st := buildState(t)
			s, err := Create(dir, st, StoreOptions{Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			cur := st
			for i := 0; i < 3; i++ {
				cur = appendDelta(t, s, cur, i)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			s.Close()
			_, got, rec, err := Open(dir, StoreOptions{})
			if err != nil || rec.Epoch != 3 {
				t.Fatalf("recovery under %v: %+v, %v", policy, rec, err)
			}
			if !bytes.Equal(stateBytes(t, got), stateBytes(t, cur)) {
				t.Fatal("recovered state differs")
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Crash matrix: kill at every injection point, recover, verify
// ---------------------------------------------------------------------------

var errCrash = errors.New("injected crash")

// crashWorkload drives a store through a scripted life: create, five
// appends, a compaction, two more appends. It returns the expected Save
// bytes per epoch (from a parallel in-memory replay) and the number of
// acked appends. Any storage error aborts the workload (the simulated
// process dies).
func crashWorkload(t *testing.T, dir string) (expected [][]byte, acked uint64) {
	t.Helper()
	st := buildState(t)
	expected = [][]byte{stateBytes(t, st)}
	cur := st
	// Precompute the full expected history; the crash decides how much
	// of it materializes.
	for i := 0; i < 7; i++ {
		rec := &WALRecord{Type: RecDelta, Epoch: uint64(i + 1),
			Writes: []string{"parent"}, Adds: []engine.Fact{intFact("extra", i)}}
		next, err := applyRecord(cur, rec)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
		expected = append(expected, stateBytes(t, cur))
	}

	s, err := Create(dir, st, StoreOptions{Fsync: FsyncAlways, CompactEvery: -1})
	if err != nil {
		return expected, 0
	}
	defer s.Close()
	run := st
	for i := 0; i < 7; i++ {
		rec := &WALRecord{Type: RecDelta, Epoch: uint64(i + 1),
			Writes: []string{"parent"}, Adds: []engine.Fact{intFact("extra", i)}}
		if err := s.Append(rec); err != nil {
			return expected, acked
		}
		acked = uint64(i + 1)
		next, err := applyRecord(run, rec)
		if err != nil {
			t.Fatal(err)
		}
		run = next
		if i == 4 {
			// Mid-life compaction: crashes inside it exercise the
			// snapshot-write, rename, dir-sync and rotation windows.
			if err := s.Compact(run, rec.Epoch); err != nil {
				return expected, acked
			}
		}
	}
	return expected, acked
}

func TestStoreCrashMatrix(t *testing.T) {
	// Pass 1: count fault-point crossings in a clean run.
	var points []string
	hooks.StorageFault = func(point string) error {
		points = append(points, point)
		return nil
	}
	crashWorkload(t, t.TempDir())
	hooks.StorageFault = nil
	if len(points) == 0 {
		t.Fatal("workload crossed no fault points")
	}

	// Pass 2: crash at every crossing in turn, then recover and verify.
	for k := range points {
		k := k
		t.Run(fmt.Sprintf("kill@%d:%s", k, points[k]), func(t *testing.T) {
			dir := t.TempDir()
			crossings := 0
			hooks.StorageFault = func(point string) error {
				crossings++
				if crossings-1 == k {
					return errCrash
				}
				return nil
			}
			expected, acked := crashWorkload(t, dir)
			hooks.StorageFault = nil

			if ok, err := Exists(dir); err != nil || !ok {
				// The crash predates any durable artifact (snapshot
				// creation failed): nothing to recover.
				if acked != 0 {
					t.Fatalf("acked %d appends but nothing durable", acked)
				}
				return
			}
			s, got, rec, err := Open(dir, StoreOptions{})
			if err != nil {
				t.Fatalf("recovery failed: %v", err)
			}
			defer s.Close()
			// Durability: every acked append survives; at most the one
			// in-flight operation may additionally have reached disk.
			if rec.Epoch < acked || rec.Epoch > acked+1 {
				t.Fatalf("recovered epoch %d, acked %d", rec.Epoch, acked)
			}
			if !bytes.Equal(stateBytes(t, got), expected[rec.Epoch]) {
				t.Fatalf("recovered state is not the epoch-%d state", rec.Epoch)
			}
		})
	}
}

// A store reuses its frame buffer across appends, but not one a replace
// record grew past maxKeptFrame: that would hold a whole state's bytes
// for the store's life.
func TestStoreKeepsNoLargeFrame(t *testing.T) {
	s, err := Create(t.TempDir(), buildState(t), StoreOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(&WALRecord{Type: RecDelta, Epoch: 1, Adds: []engine.Fact{intFact("p", 1)}}); err != nil {
		t.Fatal(err)
	}
	if c := s.frame.Cap(); c == 0 || c > maxKeptFrame {
		t.Fatalf("after a delta the frame buffer holds %d bytes, want it kept", c)
	}
	if err := s.Append(&WALRecord{Type: RecReplace, Epoch: 2, State: make([]byte, 2*maxKeptFrame)}); err != nil {
		t.Fatal(err)
	}
	if c := s.frame.Cap(); c > maxKeptFrame {
		t.Fatalf("after a %d-byte replace the frame buffer holds %d bytes", 2*maxKeptFrame, c)
	}
}

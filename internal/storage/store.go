// Durable store: a data directory holding periodic full-state
// snapshots plus a write-ahead log of every commit since the newest
// one.
//
// Directory layout:
//
//	snap-%020d.snap   full SaveState snapshot, named by its epoch
//	wal.log           framed records with epoch > the newest snapshot's
//	wal.quarantine.N  unreadable WAL suffix preserved from a recovery
//	                  that found a torn tail at byte offset N
//
// Write protocol. Snapshots are written to a temp file, fsynced,
// renamed into place, and the directory fsynced — a crash at any point
// leaves either the old set of snapshots or the old set plus a complete
// new one. WAL appends write one fully-assembled frame with a single
// write call and sync per the configured policy; a crash mid-append
// leaves a torn final record that recovery detects by its length prefix
// or checksum and quarantines.
//
// Recovery. Open loads the newest snapshot whose checksum verifies
// (falling back across corrupt ones), then replays WAL records in
// strict epoch order. The first unreadable or discontinuous record ends
// the replay: the bytes from there to EOF move to a quarantine file,
// the WAL is truncated to the valid prefix, and the condition is
// reported as a non-fatal *RecoveryError — the database resumes from
// the last durable commit. Because delta replay mirrors
// module.CommitDelta and FactSet ordering is canonical, a recovered
// state's SaveState bytes equal the committed state's exactly.
package storage

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"logres/internal/hooks"
	"logres/internal/module"
	"logres/internal/obs"
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no acknowledged commit is
	// ever lost, at one fsync per commit.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on the first append after FsyncInterval has
	// elapsed since the last sync (and on explicit Sync/Close): bounded
	// data loss, amortized fsync cost.
	FsyncInterval
	// FsyncOff never syncs automatically: the OS page cache decides.
	// Survives process crashes (the cache outlives the process) but not
	// power loss.
	FsyncOff
)

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// ParseFsyncPolicy parses the flag spellings "always", "interval", "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("storage: unknown fsync policy %q (want always, interval, or off)", s)
}

// DefaultFsyncInterval is the FsyncInterval coalescing window when none
// is configured.
const DefaultFsyncInterval = 100 * time.Millisecond

// DefaultCompactEvery is the WAL record count that triggers compaction
// when none is configured.
const DefaultCompactEvery = 4096

// StoreOptions configures a Store's durability behavior.
type StoreOptions struct {
	// Fsync is the WAL sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the coalescing window under FsyncInterval
	// (default DefaultFsyncInterval).
	FsyncInterval time.Duration
	// CompactEvery triggers compaction once this many records accumulate
	// in the WAL (default DefaultCompactEvery; negative disables).
	CompactEvery int
	// Tracer receives wal.* events (may be nil).
	Tracer obs.Tracer
}

func (o StoreOptions) withDefaults() StoreOptions {
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = DefaultFsyncInterval
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = DefaultCompactEvery
	}
	return o
}

// Recovery reports what Open found and did. A nil Tail means the log
// was clean; a non-nil Tail is the non-fatal torn-tail condition the
// store already repaired (quarantine + truncate).
type Recovery struct {
	// SnapshotEpoch is the epoch of the snapshot recovery started from.
	SnapshotEpoch uint64
	// Epoch is the recovered commit epoch (snapshot + replayed records).
	Epoch uint64
	// Replayed is the number of WAL records applied.
	Replayed int
	// Tail, when non-nil, describes the torn or corrupt WAL suffix that
	// was quarantined and truncated away.
	Tail *RecoveryError
	// BadSnapshots lists snapshot files that failed verification and
	// were skipped in favor of an older one.
	BadSnapshots []string
}

// StoreStatus is a point-in-time durability summary.
type StoreStatus struct {
	Dir             string
	Fsync           FsyncPolicy
	Epoch           uint64
	CheckpointEpoch uint64
	WALRecords      int
	WALBytes        int64
	Failed          bool
}

// Store is the durable half of a database: it owns the data directory
// and appends one record per commit. The caller (the database's commit
// paths) serializes Append calls under its own write lock; Store's
// mutex additionally protects against concurrent AsOf/Compact/Status.
type Store struct {
	mu   sync.Mutex
	dir  string
	opts StoreOptions

	wal             *os.File
	epoch           uint64 // epoch of the last appended record
	checkpointEpoch uint64 // epoch of the newest snapshot
	walRecords      int
	walBytes        int64 // current WAL file size (header + frames)
	lastSync        time.Time
	unsynced        bool
	failed          bool // a write/sync failed: refuse further appends
	closed          bool

	tracer obs.Tracer
	frame  bytes.Buffer // the frame AppendWith encodes a record into, reused under mu
}

// maxKeptFrame is the largest frame capacity a store keeps between
// appends. A replace record carries a whole state, and keeping its
// buffer would hold that much memory for the store's life; a delta
// record is tens of bytes.
const maxKeptFrame = 64 << 10

func snapName(epoch uint64) string { return fmt.Sprintf("snap-%020d.snap", epoch) }

const walName = "wal.log"

// Exists reports whether dir already holds a store (a snapshot or WAL).
func Exists(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if name == walName || (strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap")) {
			return true, nil
		}
	}
	return false, nil
}

// Create initializes dir with a snapshot of st at epoch 0 and an empty
// WAL, and returns the open store. The directory must not already hold
// a store.
func Create(dir string, st *module.State, opts StoreOptions) (*Store, error) {
	if ok, err := Exists(dir); err != nil {
		return nil, err
	} else if ok {
		return nil, fmt.Errorf("storage: %s already holds a store", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts.withDefaults(), tracer: opts.Tracer}
	if err := s.writeSnapshot(st, 0); err != nil {
		return nil, err
	}
	wal, err := s.newWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	s.wal = wal
	s.walBytes = walHeaderLen
	s.lastSync = time.Now()
	return s, nil
}

// Open recovers the store in dir: newest verifiable snapshot plus WAL
// replay. It returns the store, the recovered state, and a report of
// what recovery found. A fatal error (no loadable snapshot, unreadable
// directory) returns err != nil; a torn WAL tail is repaired and
// reported via Recovery.Tail instead.
func Open(dir string, opts StoreOptions) (*Store, *module.State, *Recovery, error) {
	s := &Store{dir: dir, opts: opts.withDefaults(), tracer: opts.Tracer}
	rec := &Recovery{}

	st, snapEpoch, bad, err := s.loadNewestSnapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	rec.SnapshotEpoch = snapEpoch
	rec.BadSnapshots = bad
	s.checkpointEpoch = snapEpoch

	// Replay every record past the checkpoint. Where the replay stopped
	// before the end of the log, the suffix is quarantined, the file
	// truncated, and rec.Tail set.
	walPath := filepath.Join(dir, walName)
	w, err := replayLog(walPath, st, snapEpoch, math.MaxUint64)
	if err != nil {
		return nil, nil, nil, err
	}
	st, s.epoch, s.walRecords, rec.Replayed = w.st, w.epoch, w.records, w.applied
	if w.stop != nil {
		if err := s.quarantine(walPath, rec, w.stop); err != nil {
			return nil, nil, nil, err
		}
	}
	rec.Epoch = s.epoch

	// Reopen the WAL for appending (replay opened it read-only and may
	// have truncated a torn tail).
	wal, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, nil, err
	}
	end, err := wal.Seek(0, io.SeekEnd)
	if err != nil {
		wal.Close()
		return nil, nil, nil, err
	}
	if end == 0 {
		// The directory had snapshots but no WAL yet (e.g. a crash
		// between snapshot creation and WAL creation): start one.
		if _, err := wal.Write([]byte(walMagic + string(rune(walVersion)))); err != nil {
			wal.Close()
			return nil, nil, nil, err
		}
		end = walHeaderLen
	}
	s.wal = wal
	s.walBytes = end
	s.lastSync = time.Now()

	s.emit(obs.Event{
		Kind:   obs.KindWALRecover,
		Round:  int(s.epoch),
		Count:  rec.Replayed,
		Detail: recoverDetail(rec),
	})
	return s, st, rec, nil
}

func recoverDetail(rec *Recovery) string {
	if rec.Tail == nil {
		return "clean"
	}
	return rec.Tail.Error()
}

// loadNewestSnapshot scans dir for snapshot files and loads the newest
// one whose checksum verifies, skipping (and reporting) corrupt ones.
func (s *Store) loadNewestSnapshot() (*module.State, uint64, []string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		return nil, 0, nil, &RecoveryError{Detail: fmt.Sprintf("no snapshot in %s", s.dir)}
	}
	// Zero-padded epochs sort lexically; walk newest first.
	sort.Sort(sort.Reverse(sort.StringSlice(names)))
	var bad []string
	var lastErr error
	for _, name := range names {
		var epoch uint64
		if _, err := fmt.Sscanf(name, "snap-%d.snap", &epoch); err != nil {
			bad = append(bad, name)
			continue
		}
		st, err := loadSnapshotFile(filepath.Join(s.dir, name))
		if err != nil {
			bad = append(bad, name)
			lastErr = err
			continue
		}
		return st, epoch, bad, nil
	}
	return nil, 0, bad, &RecoveryError{
		Detail: fmt.Sprintf("no loadable snapshot in %s (%d corrupt)", s.dir, len(bad)),
		Err:    lastErr,
	}
}

func loadSnapshotFile(path string) (*module.State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadState(f)
}

// walReplay is what a replay of the log applied, and where it stopped.
type walReplay struct {
	st      *module.State
	epoch   uint64 // the epoch of the last record applied, or the checkpoint's
	applied int    // records applied
	records int    // records read, those the checkpoint already holds included
	// stop is the record (or header) the replay could not take, and why;
	// nil when it reached the end of the log or the epoch it replays to.
	stop *RecoveryError
}

// replayLog is the one walk of the log at path, shared by recovery and
// AsOf: it applies onto st, in order, every record past the checkpoint
// epoch up to and including epoch upto. It stops at the end of the log,
// after the record at upto, or at the first record it cannot take — a
// damaged header, a torn or undecodable frame, an epoch discontinuity or
// a record that does not replay — which it reports as stop, with the
// prefix before it applied. A missing or empty log holds no records.
func replayLog(path string, st *module.State, checkpoint, upto uint64) (walReplay, error) {
	w := walReplay{st: st, epoch: checkpoint}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return w, nil
	}
	if err != nil {
		return w, err
	}
	defer f.Close()

	br := bufio.NewReader(f)
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err != io.EOF {
			w.stop = &RecoveryError{Detail: "truncated wal header", Err: err}
		}
		return w, nil
	}
	if string(hdr[:len(walMagic)]) != walMagic || hdr[len(walMagic)] != walVersion {
		w.stop = &RecoveryError{Detail: fmt.Sprintf("bad wal header %q", hdr[:])}
		return w, nil
	}

	offset := int64(walHeaderLen)
	stop := func(detail string, cause error) (walReplay, error) {
		w.stop = &RecoveryError{Offset: offset, Epoch: w.epoch, Detail: detail, Err: cause}
		return w, nil
	}
	for w.epoch < upto {
		payload, err := readFrame(br)
		if err == io.EOF {
			return w, nil
		}
		if err != nil {
			return stop("unreadable record", err)
		}
		r, err := decodeRecord(payload)
		if err != nil {
			return stop("undecodable record", err)
		}
		// A record the checkpoint already holds (a crash between snapshot
		// rename and WAL rotation leaves such records) is skipped, but it
		// is still physically in the log.
		if r.Epoch > checkpoint {
			if r.Epoch != w.epoch+1 {
				return stop(fmt.Sprintf("epoch discontinuity: record %d after %d", r.Epoch, w.epoch), nil)
			}
			next, err := applyRecord(w.st, r)
			if err != nil {
				return stop("unreplayable record", err)
			}
			w.st, w.epoch = next, r.Epoch
			w.applied++
		}
		w.records++
		offset += int64(walFrameLen + len(payload))
	}
	return w, nil
}

// quarantine preserves the unreadable WAL suffix starting at the stop's
// offset in a side file, truncates the WAL to the valid prefix, and
// records the stop as rec.Tail: a torn tail is non-fatal.
func (s *Store) quarantine(path string, rec *Recovery, rerr *RecoveryError) error {
	offset := rerr.Offset
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	tail, err := io.ReadAll(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(tail) > 0 {
		qpath := filepath.Join(s.dir, fmt.Sprintf("wal.quarantine.%d", offset))
		if err := hooks.Fault("wal.quarantine"); err != nil {
			return err
		}
		if err := os.WriteFile(qpath, tail, 0o644); err != nil {
			return err
		}
		rerr.Quarantine = qpath
	}
	if err := hooks.Fault("wal.truncate"); err != nil {
		return err
	}
	if offset < walHeaderLen {
		// The header itself was damaged: rewrite a fresh log.
		if err := os.WriteFile(path, []byte(walMagic+string(rune(walVersion))), 0o644); err != nil {
			return err
		}
	} else if err := os.Truncate(path, offset); err != nil {
		return err
	}
	rec.Tail = rerr
	return nil
}

// newWAL creates a fresh log file at path with the file header written
// and synced.
func (s *Store) newWAL(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic + string(rune(walVersion)))); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Append durably logs one commit record. The record's epoch must be
// exactly one past the last appended epoch (the caller holds the
// database write lock, so commits arrive in epoch order). On a write
// or sync failure the store marks itself failed and refuses further
// appends — the in-memory commit must not be acknowledged.
func (s *Store) Append(rec *WALRecord) error { return s.AppendWith(nil, rec) }

// AppendWith is Append with this record's wal.append / wal.fsync events
// routed to t instead of the store-wide tracer — the per-request
// attribution path. The caller passes its fully fanned per-call tracer
// (the store-wide tracer is a prefix of it, since the database mirrors
// its effective tracer into the store), so process-wide sinks still see
// the events, now stamped with the originating request. t == nil falls
// back to the store-wide tracer.
func (s *Store) AppendWith(t obs.Tracer, rec *WALRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t == nil {
		t = s.tracer
	}
	if s.closed {
		return fmt.Errorf("storage: store is closed")
	}
	if s.failed {
		return fmt.Errorf("storage: store failed a previous write; reopen to recover")
	}
	if rec.Epoch != s.epoch+1 {
		return fmt.Errorf("storage: append epoch %d, want %d", rec.Epoch, s.epoch+1)
	}
	frame, err := encodeFrame(&s.frame, rec)
	if err != nil {
		return err
	}
	if err := hooks.Fault("wal.append"); err != nil {
		s.failed = true
		return err
	}
	_, err = s.wal.Write(frame)
	if s.frame.Cap() > maxKeptFrame {
		s.frame = bytes.Buffer{}
	}
	if err != nil {
		s.failed = true
		return err
	}
	s.epoch = rec.Epoch
	s.walRecords++
	s.walBytes += int64(len(frame))
	s.unsynced = true
	if err := s.maybeSyncLocked(t); err != nil {
		s.failed = true
		return err
	}
	emitTo(t, obs.Event{
		Kind:  obs.KindWALAppend,
		Round: int(rec.Epoch),
		Pred:  rec.Type.String(),
		Count: len(frame),
		Total: int(s.walBytes),
	})
	return nil
}

// maybeSyncLocked applies the fsync policy after an append; the fsync
// event goes to t (the appending call's tracer).
func (s *Store) maybeSyncLocked(t obs.Tracer) error {
	switch s.opts.Fsync {
	case FsyncAlways:
		return s.syncLocked(t, "always")
	case FsyncInterval:
		if time.Since(s.lastSync) >= s.opts.FsyncInterval {
			return s.syncLocked(t, "interval")
		}
	}
	return nil
}

func (s *Store) syncLocked(t obs.Tracer, why string) error {
	if !s.unsynced {
		return nil
	}
	if err := hooks.Fault("wal.fsync"); err != nil {
		return err
	}
	start := time.Now()
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.lastSync = time.Now()
	s.unsynced = false
	emitTo(t, obs.Event{Kind: obs.KindWALSync, Duration: time.Since(start), Detail: why})
	return nil
}

// Sync forces any buffered WAL data to stable storage (drain paths,
// interval-policy shutdown).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.failed {
		return nil
	}
	if err := s.syncLocked(s.tracer, "explicit"); err != nil {
		s.failed = true
		return err
	}
	return nil
}

// ShouldCompact reports whether the WAL has accumulated enough records
// to warrant a checkpoint.
func (s *Store) ShouldCompact() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opts.CompactEvery > 0 && s.walRecords >= s.opts.CompactEvery && !s.failed && !s.closed
}

// Compact checkpoints st (the committed state at epoch) as a new
// snapshot and rotates the WAL, bounding both recovery time and AsOf
// history. Old snapshots beyond the newest two are removed.
func (s *Store) Compact(st *module.State, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: store is closed")
	}
	if s.failed {
		return fmt.Errorf("storage: store failed a previous write; reopen to recover")
	}
	if epoch != s.epoch {
		return fmt.Errorf("storage: compact at epoch %d, but log is at %d", epoch, s.epoch)
	}
	start := time.Now()
	// Make everything the snapshot supersedes durable first, so a crash
	// mid-compaction can always recover from the old snapshot + full log.
	if err := s.syncLocked(s.tracer, "explicit"); err != nil {
		s.failed = true
		return err
	}
	if err := s.writeSnapshot(st, epoch); err != nil {
		return err
	}
	truncated := s.walRecords

	// Rotate: build a fresh log beside the live one, then rename over
	// it. Records already captured by the snapshot die with the old
	// file; a crash between rename and reopen recovers cleanly (the new
	// log is valid and empty).
	tmp := filepath.Join(s.dir, walName+".tmp")
	if err := hooks.Fault("wal.rotate"); err != nil {
		s.failed = true
		return err
	}
	nw, err := s.newWAL(tmp)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, walName)); err != nil {
		nw.Close()
		return err
	}
	if err := s.syncDir(); err != nil {
		nw.Close()
		s.failed = true
		return err
	}
	old := s.wal
	s.wal = nw
	old.Close()
	s.checkpointEpoch = epoch
	s.walRecords = 0
	s.walBytes = walHeaderLen
	s.unsynced = false
	s.lastSync = time.Now()
	s.pruneSnapshotsLocked()
	s.emit(obs.Event{
		Kind:     obs.KindWALCompact,
		Round:    int(epoch),
		Count:    truncated,
		Duration: time.Since(start),
	})
	return nil
}

// writeSnapshot durably writes st as the snapshot for epoch:
// tmp file → fsync → rename → directory fsync.
func (s *Store) writeSnapshot(st *module.State, epoch uint64) error {
	if err := hooks.Fault("snapshot.write"); err != nil {
		return err
	}
	final := filepath.Join(s.dir, snapName(epoch))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := SaveState(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := hooks.Fault("snapshot.rename"); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return s.syncDir()
}

func (s *Store) syncDir() error {
	if err := hooks.Fault("dir.sync"); err != nil {
		return err
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// pruneSnapshotsLocked removes all but the newest two snapshots. The
// second-newest is kept as the fallback should the newest prove
// unreadable on a later recovery. Removal failures are ignored — stale
// snapshots are harmless.
func (s *Store) pruneSnapshotsLocked() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names[:max(0, len(names)-2)] {
		os.Remove(filepath.Join(s.dir, name))
	}
}

// AsOf reconstructs the committed state as of epoch by loading the
// checkpoint snapshot and replaying the WAL prefix with epochs up to
// and including it, by the walk recovery takes (replayLog); a log that
// stops short of epoch fails with the stop's *RecoveryError. History
// older than the checkpoint has been compacted away; epochs beyond the
// current one do not exist yet.
func (s *Store) AsOf(epoch uint64) (*module.State, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("storage: store is closed")
	}
	if epoch > s.epoch {
		return nil, fmt.Errorf("storage: epoch %d is in the future (current %d)", epoch, s.epoch)
	}
	if epoch < s.checkpointEpoch {
		return nil, fmt.Errorf("storage: epoch %d predates the checkpoint (%d): %w",
			epoch, s.checkpointEpoch, ErrCompacted)
	}
	// Append writes whole frames directly, so a plain read sees every
	// frame the replay needs, synced or not (page cache).
	st, err := loadSnapshotFile(filepath.Join(s.dir, snapName(s.checkpointEpoch)))
	if err != nil {
		return nil, err
	}
	w, err := replayLog(filepath.Join(s.dir, walName), st, s.checkpointEpoch, epoch)
	switch {
	case err != nil:
		return nil, err
	case w.stop != nil:
		return nil, fmt.Errorf("storage: as-of replay to epoch %d: %w", epoch, w.stop)
	case w.epoch != epoch:
		return nil, fmt.Errorf("storage: as-of replay to epoch %d stopped at %d: %w", epoch, w.epoch, io.ErrUnexpectedEOF)
	}
	return w.st, nil
}

// ErrCompacted marks an AsOf request for history the store has already
// compacted away.
var ErrCompacted = errors.New("storage: epoch compacted away")

// Status returns a point-in-time durability summary.
func (s *Store) Status() StoreStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStatus{
		Dir:             s.dir,
		Fsync:           s.opts.Fsync,
		Epoch:           s.epoch,
		CheckpointEpoch: s.checkpointEpoch,
		WALRecords:      s.walRecords,
		WALBytes:        s.walBytes,
		Failed:          s.failed,
	}
}

// Epoch returns the last durably logged epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Dir returns the store's data directory.
func (s *Store) Dir() string { return s.dir }

// SetTracer replaces the wal.* event sink (nil silences it).
func (s *Store) SetTracer(t obs.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

// Close syncs and closes the WAL. Further operations fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if !s.failed {
		err = s.syncLocked(s.tracer, "explicit")
	}
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *Store) emit(ev obs.Event) { emitTo(s.tracer, ev) }

func emitTo(t obs.Tracer, ev obs.Event) {
	if t != nil {
		t.Event(ev)
	}
}

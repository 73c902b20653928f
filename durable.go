package logres

import (
	"bytes"
	"fmt"
	"time"

	"logres/internal/module"
	"logres/internal/obs"
	"logres/internal/storage"
)

// Durable databases (DESIGN.md §12). A Database opened with OpenDurable
// owns a data directory holding periodic snapshots plus a write-ahead
// log; every commit — an application's, optimistic or locked, or a
// module registration — appends one record to the log before it is
// acknowledged, so a crash at any point recovers the exact committed
// prefix. Reopening the same directory replays the log onto the newest
// snapshot; replay reproduces the committed state byte for byte (the
// Save output of the recovered database equals the pre-crash one).

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy = storage.FsyncPolicy

// The fsync policies: every append, coalesced on an interval, or left
// to the OS page cache.
const (
	FsyncAlways   = storage.FsyncAlways
	FsyncInterval = storage.FsyncInterval
	FsyncOff      = storage.FsyncOff
)

// ParseFsyncPolicy parses "always", "interval", or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) { return storage.ParseFsyncPolicy(s) }

// RecoveryReport describes what opening an existing data directory
// found: the snapshot it started from, the records replayed, and — when
// the log had a torn or corrupt tail — the non-fatal *RecoveryError the
// store repaired (quarantine + truncate).
type RecoveryReport = storage.Recovery

// RecoveryError is the typed error of a WAL recovery condition: the
// byte offset and epoch where replay stopped, the quarantine file
// holding the unreadable suffix, and the underlying cause.
type RecoveryError = storage.RecoveryError

// DurabilityStatus is a point-in-time summary of a durable database's
// storage: data directory, fsync policy, durable epoch, checkpoint
// epoch, and current WAL size.
type DurabilityStatus = storage.StoreStatus

// Durability configures OpenDurable.
type Durability struct {
	// Dir is the data directory (created if absent).
	Dir string
	// Fsync is the WAL sync policy (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncInterval is the coalescing window under FsyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// CompactEvery checkpoints and truncates the WAL once this many
	// records accumulate (default 4096; negative disables).
	CompactEvery int
}

// OpenDurable opens a durable database over dir. A fresh directory is
// initialized from schemaSrc (exactly like Open) with a snapshot at
// epoch 0; a directory that already holds a store is recovered instead
// — the newest verifiable snapshot plus WAL replay — and schemaSrc is
// ignored in favor of the persisted schema. The report is nil on fresh
// creation and describes the recovery otherwise.
func OpenDurable(schemaSrc string, d Durability, options ...Option) (*Database, *RecoveryReport, error) {
	exists, err := storage.Exists(d.Dir)
	if err != nil {
		return nil, nil, err
	}
	sopts := storage.StoreOptions{
		Fsync:         d.Fsync,
		FsyncInterval: d.FsyncInterval,
		CompactEvery:  d.CompactEvery,
	}
	if !exists {
		db, err := Open(schemaSrc, options...)
		if err != nil {
			return nil, nil, err
		}
		store, err := storage.Create(d.Dir, db.snap.Load().st, sopts)
		if err != nil {
			return nil, nil, err
		}
		db.store = store
		store.SetTracer(db.opts.Tracer)
		return db, nil, nil
	}

	db, err := newDatabase(nil, options)
	if err != nil {
		return nil, nil, err
	}
	store, st, rec, err := storage.Open(d.Dir, sopts)
	if err != nil {
		return nil, nil, err
	}
	db.log = storage.NewCommitLogAt(rec.Epoch, 0)
	db.store = store
	db.recovery = rec
	store.SetTracer(db.opts.Tracer)
	// The recovered state is audited once, and maintenance state — derived,
	// not persisted — is rebuilt from it by recomputation, so the
	// maintained set is byte-identical to a cold from-scratch evaluation.
	// A failure closes the WAL the store holds open.
	if err := db.start(st, true); err != nil {
		_ = store.Close()
		return nil, nil, err
	}
	return db, rec, nil
}

// Durable reports whether the database persists commits to a WAL.
func (db *Database) Durable() bool { return db.store != nil }

// Recovery returns the report of the recovery that opened this
// database, or nil (fresh creation, or a non-durable database).
func (db *Database) Recovery() *RecoveryReport { return db.recovery }

// Durability returns the storage status of a durable database; ok is
// false for a database without a store.
func (db *Database) Durability() (DurabilityStatus, bool) {
	if db.store == nil {
		return DurabilityStatus{}, false
	}
	return db.store.Status(), true
}

// Sync forces buffered WAL data to stable storage — the drain hook for
// FsyncInterval / FsyncOff databases. A no-op without a store.
func (db *Database) Sync() error {
	if db.store == nil {
		return nil
	}
	return db.store.Sync()
}

// Close syncs and closes the WAL. Subsequent commits fail; read-only
// methods keep working against the in-memory state. A no-op without a
// store.
func (db *Database) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.store == nil {
		return nil
	}
	return db.store.Close()
}

// Compact checkpoints the current committed state as a new snapshot and
// truncates the WAL, bounding recovery time (and the AsOf horizon).
// Compaction also runs automatically every Durability.CompactEvery
// commits.
func (db *Database) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.store == nil {
		return fmt.Errorf("logres: database is not durable")
	}
	return db.store.Compact(db.snap.Load().st, db.log.Epoch())
}

// AsOf reconstructs the committed state as it was at a past commit
// epoch (see CommitEpoch) by replaying the WAL prefix onto the
// checkpoint snapshot, and returns it as a read-only database sharing
// this one's options. History older than the last compaction
// checkpoint is gone (storage.ErrCompacted); future epochs do not
// exist yet.
func (db *Database) AsOf(epoch uint64) (*Database, error) {
	if db.store == nil {
		return nil, fmt.Errorf("logres: database is not durable")
	}
	st, err := db.store.AsOf(epoch)
	if err != nil {
		return nil, err
	}
	past := &Database{opts: db.snap.Load().opts, log: storage.NewCommitLogAt(epoch, 0)}
	past.publish(st, nil)
	return past, nil
}

// walAppend logs one commit at epoch as the record its kind replays
// from: a registration as the module's canonical source (the parser
// round-trips it on replay), a whole-state replacement as next's
// snapshot, and any other commit as its fact delta. The tracer is the
// committing call's (request-instrumented when the call runs under a
// span) so the append and its fsync wait are attributed. No-op without
// a store.
func (db *Database) walAppend(t Tracer, epoch uint64, sr *module.SnapshotResult, next *module.State) error {
	if db.store == nil {
		return nil
	}
	rec := &storage.WALRecord{Epoch: epoch}
	switch {
	case sr.Registered != nil:
		rec.Type, rec.Source = storage.RecRegister, module.RenderModule(sr.Registered)
	case sr.Replace:
		var buf bytes.Buffer
		if err := storage.SaveState(&buf, next); err != nil {
			return fmt.Errorf("logres: serializing commit for wal: %w", err)
		}
		rec.Type, rec.State = storage.RecReplace, buf.Bytes()
	default:
		rec.Type, rec.Writes, rec.CounterDelta = storage.RecDelta, sr.Footprint.Writes, sr.CounterDelta
		rec.Removes, rec.Adds = sr.Removes, sr.Adds
	}
	return db.store.AppendWith(t, rec)
}

// maybeCompact runs a compaction when the WAL has grown past the
// configured threshold. Called under the write lock after a successful
// commit; a compaction failure never fails the commit (the log still
// holds it) — it is only surfaced to the tracer.
func (db *Database) maybeCompact() {
	if db.store == nil || !db.store.ShouldCompact() {
		return
	}
	if err := db.store.Compact(db.snap.Load().st, db.log.Epoch()); err != nil {
		if db.opts.Tracer != nil {
			db.opts.Tracer.Event(TraceEvent{
				Kind:    obs.KindWALCompact,
				Stratum: -1,
				Detail:  "compaction failed: " + err.Error(),
			})
		}
	}
}

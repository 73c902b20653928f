package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"logres/internal/engine"
	"logres/internal/value"
)

// goldenRecord is one WAL record whose framed bytes are checked in under
// testdata/wal/<name>.golden.
type goldenRecord struct {
	name string
	rec  *WALRecord
}

// goldenRecords are one record of each type, at the epochs a fresh
// store appends them at. The delta removes and adds a class fact, an
// association fact and an association fact holding a nested tuple.
func goldenRecords() []goldenRecord {
	ann := engine.Fact{Pred: "person", IsClass: true, OID: 1,
		Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("ann")})}
	bob := engine.Fact{Pred: "person", IsClass: true, OID: 2,
		Tuple: value.NewTuple(value.Field{Label: "name", Value: value.Str("bob")})}
	parent := engine.Fact{Pred: "parent", Tuple: value.NewTuple(
		value.Field{Label: "par", Value: value.Ref(1)},
		value.Field{Label: "chil", Value: value.Ref(2)})}
	lives := func(who value.OID, street string, no int64) engine.Fact {
		return engine.Fact{Pred: "lives", Tuple: value.NewTuple(
			value.Field{Label: "who", Value: value.Ref(who)},
			value.Field{Label: "at", Value: value.NewTuple(
				value.Field{Label: "street", Value: value.Str(street)},
				value.Field{Label: "no", Value: value.Int(no)})})}
	}
	return []goldenRecord{
		{"delta", &WALRecord{Type: RecDelta, Epoch: 1, Writes: []string{"lives", "parent", "person"},
			CounterDelta: 1,
			Removes:      []engine.Fact{ann, lives(1, "elm", 3)},
			Adds:         []engine.Fact{bob, parent, lives(2, "oak", 12)}}},
		{"replace", &WALRecord{Type: RecReplace, Epoch: 2, State: []byte("opaque snapshot bytes")}},
		{"register", &WALRecord{Type: RecRegister, Epoch: 3,
			Source: "module m;\nmode ridv.\nrules\n  p(x: 1).\nend.\n"}},
	}
}

// TestWALGoldenBytes pins the WAL record format: each record's framed
// bytes equal the checked-in ones, decode back to the record, and are
// what a store appends to its log.
func TestWALGoldenBytes(t *testing.T) {
	log := []byte(walMagic + string(rune(walVersion)))
	for _, g := range goldenRecords() {
		want, err := os.ReadFile(filepath.Join("testdata", "wal", g.name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, want...)
		payload, err := encodeRecord(g.rec)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.name, err)
		}
		if got := frameRecord(payload); !bytes.Equal(got, want) {
			t.Errorf("%s: framed bytes\n got %x\nwant %x", g.name, got, want)
		}
		framed, err := readFrame(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("%s: frame: %v", g.name, err)
		}
		rec, err := decodeRecord(framed)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.name, err)
		}
		assertSameRecord(t, g.name, rec, g.rec)
	}

	dir := t.TempDir()
	s, err := Create(dir, buildState(t), StoreOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenRecords() {
		if err := s.Append(g.rec); err != nil {
			t.Fatalf("%s: append: %v", g.name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, log) {
		t.Fatalf("store log\n got %x\nwant %x", got, log)
	}
}

func assertSameRecord(t *testing.T, name string, got, want *WALRecord) {
	t.Helper()
	facts := func(fs []engine.Fact) []string {
		keys := make([]string, len(fs))
		for i, f := range fs {
			keys[i] = f.Key()
		}
		return keys
	}
	if got.Type != want.Type || got.Epoch != want.Epoch || got.CounterDelta != want.CounterDelta ||
		!slices.Equal(got.Writes, want.Writes) || !slices.Equal(facts(got.Removes), facts(want.Removes)) ||
		!slices.Equal(facts(got.Adds), facts(want.Adds)) || !bytes.Equal(got.State, want.State) ||
		got.Source != want.Source {
		t.Fatalf("%s: decoded %+v, want %+v", name, got, want)
	}
}

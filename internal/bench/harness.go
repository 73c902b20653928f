package bench

import (
	"bytes"
	"fmt"

	"logres/internal/ast"
	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/storage"
	"logres/internal/types"
	"logres/internal/value"
)

// ModeSetup is the E6 workload: the same n-fact update applied through
// each module mode.
type ModeSetup struct {
	Base *module.State
	Mod  *ast.Module
	Mode ast.Mode
}

// NewModeWorkload builds a state with n existing facts and a module
// inserting n more through a rule.
func NewModeWorkload(n int, mode ast.Mode) (*ModeSetup, error) {
	m, err := parser.ParseModule(`
associations
  OLD = (k: integer);
  NEW = (k: integer);
  COPYREL = (k: integer);
`)
	if err != nil {
		return nil, err
	}
	if err := m.Schema.Validate(); err != nil {
		return nil, err
	}
	st := module.NewState(m.Schema)
	for i := 0; i < n; i++ {
		st.E.Add(engine.Fact{Pred: "old", Tuple: value.NewTuple(
			value.Field{Label: "k", Value: value.Int(int64(i))},
		)})
	}
	rules, err := parser.ParseProgram(`copyrel(k: X) <- old(k: X).`)
	if err != nil {
		return nil, err
	}
	mod := &ast.Module{Schema: types.NewSchema(), Rules: rules}
	if mode.HasGoal() {
		goal, err := parser.ParseGoal(`?- copyrel(k: X).`)
		if err != nil {
			return nil, err
		}
		mod.Goal = goal
	}
	return &ModeSetup{Base: st, Mod: mod, Mode: mode}, nil
}

// Run applies the module once and returns the copy relation's size: the
// goal answer for data-invariant modes (RIDI leaves the state untouched),
// the resulting EDB size for data-variant modes.
func (s *ModeSetup) Run() (int, error) {
	res, err := module.Apply(s.Base, s.Mod, s.Mode, engine.DefaultOptions())
	if err != nil {
		return 0, err
	}
	if res.Answer != nil {
		return len(res.Answer.Rows), nil
	}
	return res.State.E.Size("copyrel"), nil
}

// SnapshotSetup is the E9 workload.
type SnapshotSetup struct {
	State *module.State
	Blob  []byte
}

// NewSnapshot builds a state with n objects and n association tuples and
// its encoded snapshot.
func NewSnapshot(n int) (*SnapshotSetup, error) {
	m, err := parser.ParseModule(`
classes ITEM = (k: integer, name: string);
associations LINKREL = (a: ITEM, b: ITEM);
`)
	if err != nil {
		return nil, err
	}
	st := module.NewState(m.Schema)
	for i := 1; i <= n; i++ {
		st.E.Add(engine.Fact{Pred: "item", IsClass: true, OID: value.OID(i),
			Tuple: value.NewTuple(
				value.Field{Label: "k", Value: value.Int(int64(i))},
				value.Field{Label: "name", Value: value.Str(fmt.Sprintf("item-%d", i))},
			)})
	}
	for i := 1; i < n; i++ {
		st.E.Add(engine.Fact{Pred: "linkrel", Tuple: value.NewTuple(
			value.Field{Label: "a", Value: value.Ref(value.OID(i))},
			value.Field{Label: "b", Value: value.Ref(value.OID(i + 1))},
		)})
	}
	st.Counter = int64(n)
	var buf bytes.Buffer
	if err := storage.SaveState(&buf, st); err != nil {
		return nil, err
	}
	return &SnapshotSetup{State: st, Blob: buf.Bytes()}, nil
}

// Encode writes one snapshot and returns its size.
func (s *SnapshotSetup) Encode() (int, error) {
	var buf bytes.Buffer
	if err := storage.SaveState(&buf, s.State); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// Decode reads the snapshot back and returns the fact count.
func (s *SnapshotSetup) Decode() (int, error) {
	st, err := storage.LoadState(bytes.NewReader(s.Blob))
	if err != nil {
		return 0, err
	}
	return st.E.TotalSize(), nil
}

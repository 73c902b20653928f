package module

import (
	"fmt"
	"strings"

	"logres/internal/ast"
	"logres/internal/parser"
)

// Library is a registry of named modules — the paper's §5 direction of
// supporting "the notions of methods and of encapsulation … within
// LOGRES": a module stored under its name is an encapsulated query or
// update procedure, invoked against a state without the caller seeing its
// rules.
type Library struct {
	mods  map[string]*ast.Module
	order []string
}

// NewLibrary returns an empty library.
func NewLibrary() *Library {
	return &Library{mods: map[string]*ast.Module{}}
}

// Register stores a module under its declared name. Re-registering a name
// replaces the previous module (method redefinition).
func (l *Library) Register(m *ast.Module) error {
	if m.Name == "" {
		return fmt.Errorf("module: cannot register an anonymous module; declare `module NAME.`")
	}
	if _, exists := l.mods[m.Name]; !exists {
		l.order = append(l.order, m.Name)
	}
	l.mods[m.Name] = m
	return nil
}

// Get returns a registered module.
func (l *Library) Get(name string) (*ast.Module, bool) {
	m, ok := l.mods[strings.ToLower(name)]
	return m, ok
}

// Remove deletes a registered module; it reports whether it existed.
func (l *Library) Remove(name string) bool {
	name = strings.ToLower(name)
	if _, ok := l.mods[name]; !ok {
		return false
	}
	delete(l.mods, name)
	for i, n := range l.order {
		if n == name {
			l.order = append(l.order[:i], l.order[i+1:]...)
			break
		}
	}
	return true
}

// Names returns the registered module names in registration order.
func (l *Library) Names() []string {
	out := make([]string, len(l.order))
	copy(out, l.order)
	return out
}

// Lookup returns the named module for a call, or an error listing the
// registered names. A nil library has none.
func (l *Library) Lookup(name string) (*ast.Module, error) {
	if l == nil {
		return nil, fmt.Errorf("module: no module named %q; registered: none", name)
	}
	m, ok := l.Get(name)
	if !ok {
		return nil, fmt.Errorf("module: no module named %q; registered: %s",
			name, strings.Join(l.Names(), ", "))
	}
	return m, nil
}

// Clone returns a copy of the library (modules are immutable once
// parsed and shared).
func (l *Library) Clone() *Library {
	n := NewLibrary()
	for _, name := range l.order {
		n.order = append(n.order, name)
		n.mods[name] = l.mods[name]
	}
	return n
}

// Sources renders every registered module back to concrete syntax, for
// persistence. The rendering re-parses to the same module.
func (l *Library) Sources() []string {
	out := make([]string, 0, len(l.order))
	for _, name := range l.order {
		out = append(out, RenderModule(l.mods[name]))
	}
	return out
}

// LoadSources re-registers modules from rendered sources.
func (l *Library) LoadSources(sources []string) error {
	for _, src := range sources {
		m, err := parser.ParseModule(src)
		if err != nil {
			return fmt.Errorf("module: reparsing library module: %w", err)
		}
		if err := l.Register(m); err != nil {
			return err
		}
	}
	return nil
}

// RenderModule prints a module in concrete syntax such that re-parsing
// yields an equivalent module.
func RenderModule(m *ast.Module) string {
	var b strings.Builder
	if m.Name != "" {
		fmt.Fprintf(&b, "module %s.\n", m.Name)
	}
	if m.HasMod {
		fmt.Fprintf(&b, "mode %s.\n", strings.ToLower(m.Mode.String()))
	}
	if m.NonInflationary {
		b.WriteString("semantics noninflationary.\n")
	}
	if m.Schema != nil && len(m.Schema.Names()) > 0 {
		b.WriteString(m.Schema.String())
	}
	if len(m.Rules) > 0 {
		b.WriteString("rules\n")
		for _, r := range m.Rules {
			b.WriteString("  " + r.String() + "\n")
		}
	}
	if len(m.Goal) > 0 {
		b.WriteString("goal\n  ?- ")
		parts := make([]string, len(m.Goal))
		for i, g := range m.Goal {
			parts[i] = g.String()
		}
		b.WriteString(strings.Join(parts, ", ") + ".\n")
	}
	b.WriteString("end.\n")
	return b.String()
}

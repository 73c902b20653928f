package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"logres/internal/engine"
	"logres/internal/module"
	"logres/internal/parser"
	"logres/internal/value"
)

// Snapshot format:
//
//	magic "LGRS", version byte,
//	schema, rule text (canonical syntax), fact set, oid counter,
//	module library sources,
//	CRC32-C trailer over every preceding byte.
//
// Corruption — a failed trailer check, truncation mid-structure, a bad
// magic or version — surfaces as a typed *ErrCorrupt carrying the byte
// offset, wrapping (not replacing) the underlying io error.
const (
	magic   = "LGRS"
	version = 3 // v3 added the CRC32-C integrity trailer
)

// SaveState writes a complete database state.
func SaveState(dst io.Writer, st *module.State) error {
	bw := bufio.NewWriter(dst)
	w := &writer{w: bw, crc: crc32.New(castagnoli)}
	w.str(magic)
	w.byte(version)
	w.schema(st.S)

	var rules strings.Builder
	for _, r := range st.R {
		rules.WriteString(r.String())
		rules.WriteByte('\n')
	}
	w.str(rules.String())

	writeFactSet(w, st.E)
	w.varint(st.Counter)

	var libSources []string
	if st.Lib != nil {
		libSources = st.Lib.Sources()
	}
	w.uvarint(uint64(len(libSources)))
	for _, src := range libSources {
		w.str(src)
	}

	// Integrity trailer: CRC32-C of everything written so far. The
	// trailer itself is not hashed.
	sum := w.crc.Sum32()
	w.crc = nil
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	w.raw(trailer[:])

	if w.err != nil {
		return w.err
	}
	return bw.Flush()
}

func writeFactSet(w *writer, fs *engine.FactSet) {
	preds := fs.Preds()
	w.uvarint(uint64(len(preds)))
	for _, p := range preds {
		w.str(p)
		w.uvarint(uint64(fs.Size(p)))
		fs.Each(p, func(f engine.Fact) bool {
			writeFact(w, f)
			return true
		})
	}
}

// writeFact encodes one fact (shared by the snapshot fact-set section
// and the WAL delta records): class marker (+oid), then the tuple.
func writeFact(w *writer, f engine.Fact) {
	if f.IsClass {
		w.byte(1)
		w.varint(int64(f.OID))
	} else {
		w.byte(0)
	}
	w.value(f.Tuple)
}

// readFact decodes one fact with its predicate already known.
func readFact(r *reader, pred string) (engine.Fact, error) {
	isClass, err := r.byte()
	if err != nil {
		return engine.Fact{}, err
	}
	f := engine.Fact{Pred: pred}
	if isClass == 1 {
		f.IsClass = true
		oid, err := r.varint()
		if err != nil {
			return engine.Fact{}, err
		}
		f.OID = value.OID(oid)
	}
	v, err := r.value()
	if err != nil {
		return engine.Fact{}, err
	}
	t, ok := v.(value.Tuple)
	if !ok {
		return engine.Fact{}, fmt.Errorf("storage: fact payload is not a tuple")
	}
	f.Tuple = t
	return f, nil
}

// LoadState reads a database state written by SaveState. Decoding
// failures — short reads, bad tags, a trailer mismatch — surface as a
// typed *ErrCorrupt attributed to the byte offset where decoding
// stopped, wrapping the underlying error.
func LoadState(src io.Reader) (*module.State, error) {
	cr := &countingReader{r: bufio.NewReader(src), crc: crc32.New(castagnoli)}
	r := &reader{r: cr}
	m, err := r.str()
	if err != nil {
		return nil, cr.corrupt("magic", err)
	}
	if m != magic {
		return nil, &ErrCorrupt{Offset: 0, Detail: fmt.Sprintf("bad magic %q", m)}
	}
	v, err := r.byte()
	if err != nil {
		return nil, cr.corrupt("version", err)
	}
	if v != version {
		return nil, &ErrCorrupt{Offset: cr.n, Detail: fmt.Sprintf("unsupported snapshot version %d", v)}
	}
	// Every path that changes a schema validates it, so a saved one
	// passes; validating here compiles its Definition 4 check once.
	schema, err := r.schema()
	if err == nil {
		err = schema.Validate()
	}
	if err != nil {
		return nil, cr.corrupt("schema", err)
	}
	ruleText, err := r.str()
	if err != nil {
		return nil, cr.corrupt("rule text", err)
	}
	st := module.NewState(schema)
	fs, err := readFactSet(r)
	if err != nil {
		return nil, cr.corrupt("fact set", err)
	}
	st.E = fs
	counter, err := r.varint()
	if err != nil {
		return nil, cr.corrupt("oid counter", err)
	}
	st.Counter = counter

	nLib, err := r.uvarint()
	if err != nil {
		return nil, cr.corrupt("library", err)
	}
	sources := make([]string, 0, min(nLib, maxPrealloc))
	for i := uint64(0); i < nLib; i++ {
		src, err := r.str()
		if err != nil {
			return nil, cr.corrupt("library", err)
		}
		sources = append(sources, src)
	}

	// The body checksum stops here; the trailer bytes that follow are
	// read outside the hash comparison.
	sum := cr.crc.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(cr, trailer[:]); err != nil {
		return nil, cr.corrupt("snapshot trailer", err)
	}
	if got := binary.LittleEndian.Uint32(trailer[:]); got != sum {
		return nil, &ErrCorrupt{Offset: cr.n - 4,
			Detail: fmt.Sprintf("snapshot checksum mismatch: trailer %08x, computed %08x", got, sum)}
	}

	// Rules and library modules are source text: they are parsed only
	// once the checksum has vouched for the bytes.
	if strings.TrimSpace(ruleText) != "" {
		rules, err := parser.ParseProgram(ruleText)
		if err != nil {
			return nil, fmt.Errorf("storage: reparsing rules: %w", err)
		}
		st.R = rules
	}
	if err := st.Lib.LoadSources(sources); err != nil {
		return nil, fmt.Errorf("storage: loading module library: %w", err)
	}
	return st, nil
}

func readFactSet(r *reader) (*engine.FactSet, error) {
	fs := engine.NewFactSet()
	np, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < np; i++ {
		pred, err := r.str()
		if err != nil {
			return nil, err
		}
		nf, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		for j := uint64(0); j < nf; j++ {
			f, err := readFact(r, pred)
			if err != nil {
				return nil, err
			}
			fs.Add(f)
		}
	}
	return fs, nil
}

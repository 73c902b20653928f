// Package storage persists LOGRES database states: a deterministic binary
// codec for values, type descriptors, schemas, fact sets and whole states
// (E, R, S, oid counter). Rules are stored in their canonical surface
// syntax and re-parsed on load (the parser round-trips).
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"logres/internal/types"
	"logres/internal/value"
)

// castagnoli is the CRC32-C polynomial table shared by the snapshot
// trailer and the WAL record checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// value encoding tags
const (
	tagInt byte = iota + 1
	tagReal
	tagString
	tagBool
	tagRef
	tagNull
	tagTuple
	tagSet
	tagMultiset
	tagSequence
)

// writer is the encoding primitives' output: the snapshot codec writes
// through a *bufio.Writer over its file, a WAL record straight into a
// *bytes.Buffer.
type writer struct {
	w io.Writer
	// crc, when non-nil, hashes every byte written — the snapshot codec
	// uses it to accumulate the integrity trailer without a second pass.
	crc hash.Hash32
	err error
}

func (w *writer) raw(p []byte) {
	if w.err != nil {
		return
	}
	if w.crc != nil {
		_, _ = w.crc.Write(p)
	}
	_, w.err = w.w.Write(p)
}

func (w *writer) byte(b byte) {
	buf := [1]byte{b}
	w.raw(buf[:])
}

func (w *writer) uvarint(x uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	w.raw(buf[:n])
}

func (w *writer) varint(x int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], x)
	w.raw(buf[:n])
}

func (w *writer) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	if w.crc != nil {
		_, _ = io.WriteString(w.crc, s)
	}
	_, w.err = io.WriteString(w.w, s)
}

// byteReader is the input the decoding primitives need; *bufio.Reader
// satisfies it directly, and countingReader wraps one to track the
// consumed offset and accumulate the integrity checksum.
type byteReader interface {
	io.Reader
	io.ByteReader
}

type reader struct {
	r byteReader
}

func (r *reader) byte() (byte, error) { return r.r.ReadByte() }

func (r *reader) uvarint() (uint64, error) { return binary.ReadUvarint(r.r) }

func (r *reader) varint() (int64, error) { return binary.ReadVarint(r.r) }

// maxPrealloc caps what a decoded length may preallocate. Lengths are
// untrusted input: a corrupt one must fail at the end of the input, not
// in one huge allocation, so longer collections and strings grow as
// their bytes actually arrive.
const maxPrealloc = 1 << 12

func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > 1<<30 {
		return "", fmt.Errorf("storage: string length %d too large", n)
	}
	buf := make([]byte, 0, min(n, maxPrealloc))
	for uint64(len(buf)) < n {
		read := len(buf)
		chunk := int(min(n-uint64(read), uint64(max(read, maxPrealloc))))
		buf = slices.Grow(buf, chunk)[:read+chunk]
		if _, err := io.ReadFull(r.r, buf[read:]); err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

// countingReader tracks the byte offset consumed by the decoder (for
// ErrCorrupt attribution) and, when crc is set, hashes every byte
// delivered (for the snapshot trailer check). It sits above the bufio
// layer so read-ahead never pollutes the offset or the checksum.
type countingReader struct {
	r   *bufio.Reader
	crc hash.Hash32
	n   int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.n += int64(n)
		if c.crc != nil {
			_, _ = c.crc.Write(p[:n])
		}
	}
	return n, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
		if c.crc != nil {
			buf := [1]byte{b}
			_, _ = c.crc.Write(buf[:])
		}
	}
	return b, err
}

// corrupt wraps err as an *ErrCorrupt at the reader's current offset;
// an error that is already attributed passes through unchanged.
func (c *countingReader) corrupt(detail string, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*ErrCorrupt); ok {
		return err
	}
	return &ErrCorrupt{Offset: c.n, Detail: detail, Err: err}
}

func (w *writer) value(v value.Value) {
	switch x := v.(type) {
	case value.Int:
		w.byte(tagInt)
		w.varint(int64(x))
	case value.Real:
		w.byte(tagReal)
		w.uvarint(math.Float64bits(float64(x)))
	case value.Str:
		w.byte(tagString)
		w.str(string(x))
	case value.Bool:
		w.byte(tagBool)
		if x {
			w.byte(1)
		} else {
			w.byte(0)
		}
	case value.Ref:
		w.byte(tagRef)
		w.varint(int64(x))
	case value.Null:
		w.byte(tagNull)
	case value.Tuple:
		w.byte(tagTuple)
		w.uvarint(uint64(x.Len()))
		for i := 0; i < x.Len(); i++ {
			f := x.Field(i)
			w.str(f.Label)
			w.value(f.Value)
		}
	case value.Set:
		w.byte(tagSet)
		w.elems(x.Elems())
	case value.Multiset:
		w.byte(tagMultiset)
		w.elems(x.Elems())
	case value.Sequence:
		w.byte(tagSequence)
		w.elems(x.Elems())
	default:
		if w.err == nil {
			w.err = fmt.Errorf("storage: cannot encode %T", v)
		}
	}
}

func (w *writer) elems(es []value.Value) {
	w.uvarint(uint64(len(es)))
	for _, e := range es {
		w.value(e)
	}
}

func (r *reader) value() (value.Value, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagInt:
		x, err := r.varint()
		return value.Int(x), err
	case tagReal:
		bits, err := r.uvarint()
		return value.Real(math.Float64frombits(bits)), err
	case tagString:
		s, err := r.str()
		return value.Str(s), err
	case tagBool:
		b, err := r.byte()
		return value.Bool(b != 0), err
	case tagRef:
		x, err := r.varint()
		return value.Ref(x), err
	case tagNull:
		return value.Null{}, nil
	case tagTuple:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		fields := make([]value.Field, 0, min(n, maxPrealloc))
		for i := uint64(0); i < n; i++ {
			label, err := r.str()
			if err != nil {
				return nil, err
			}
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			fields = append(fields, value.Field{Label: label, Value: v})
		}
		return value.NewTuple(fields...), nil
	case tagSet, tagMultiset, tagSequence:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		elems := make([]value.Value, 0, min(n, maxPrealloc))
		for i := uint64(0); i < n; i++ {
			v, err := r.value()
			if err != nil {
				return nil, err
			}
			elems = append(elems, v)
		}
		switch tag {
		case tagSet:
			return value.NewSet(elems...), nil
		case tagMultiset:
			return value.NewMultiset(elems...), nil
		default:
			return value.NewSequence(elems...), nil
		}
	}
	return nil, fmt.Errorf("storage: unknown value tag %d", tag)
}

// type encoding tags
const (
	tyInt byte = iota + 1
	tyReal
	tyString
	tyBool
	tyNamed
	tyTuple
	tySet
	tyMultiset
	tySequence
	tyNil // absent type (nullary function argument)
)

func (w *writer) typ(t types.Type) {
	switch x := t.(type) {
	case nil:
		w.byte(tyNil)
	case types.Elementary:
		switch x.K {
		case types.KindInt:
			w.byte(tyInt)
		case types.KindReal:
			w.byte(tyReal)
		case types.KindString:
			w.byte(tyString)
		case types.KindBool:
			w.byte(tyBool)
		default:
			if w.err == nil {
				w.err = fmt.Errorf("storage: bad elementary kind %v", x.K)
			}
		}
	case types.Named:
		w.byte(tyNamed)
		w.str(x.Name)
	case types.Tuple:
		w.byte(tyTuple)
		w.uvarint(uint64(len(x.Fields)))
		for _, f := range x.Fields {
			w.str(f.Label)
			w.typ(f.Type)
		}
	case types.Set:
		w.byte(tySet)
		w.typ(x.Elem)
	case types.Multiset:
		w.byte(tyMultiset)
		w.typ(x.Elem)
	case types.Sequence:
		w.byte(tySequence)
		w.typ(x.Elem)
	default:
		if w.err == nil {
			w.err = fmt.Errorf("storage: cannot encode type %T", t)
		}
	}
}

func (r *reader) typ() (types.Type, error) {
	tag, err := r.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tyNil:
		return nil, nil
	case tyInt:
		return types.Int, nil
	case tyReal:
		return types.Real, nil
	case tyString:
		return types.String, nil
	case tyBool:
		return types.Bool, nil
	case tyNamed:
		name, err := r.str()
		return types.Named{Name: name}, err
	case tyTuple:
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		fields := make([]types.Field, 0, min(n, maxPrealloc))
		for i := uint64(0); i < n; i++ {
			label, err := r.str()
			if err != nil {
				return nil, err
			}
			ft, err := r.typ()
			if err != nil {
				return nil, err
			}
			fields = append(fields, types.Field{Label: label, Type: ft})
		}
		return types.Tuple{Fields: fields}, nil
	case tySet:
		e, err := r.typ()
		return types.Set{Elem: e}, err
	case tyMultiset:
		e, err := r.typ()
		return types.Multiset{Elem: e}, err
	case tySequence:
		e, err := r.typ()
		return types.Sequence{Elem: e}, err
	}
	return nil, fmt.Errorf("storage: unknown type tag %d", tag)
}

func (w *writer) schema(s *types.Schema) {
	names := s.Names()
	w.uvarint(uint64(len(names)))
	for _, n := range names {
		d, _ := s.Lookup(n)
		w.str(d.Name)
		w.byte(byte(d.Kind))
		w.typ(d.RHS)
		w.typ(d.Arg)
		w.typ(d.Result)
	}
	edges := s.IsaEdges()
	w.uvarint(uint64(len(edges)))
	for _, e := range edges {
		w.str(e.Sub)
		w.str(e.Label)
		w.str(e.Super)
	}
}

func (r *reader) schema() (*types.Schema, error) {
	s := types.NewSchema()
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < n; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		kind, err := r.byte()
		if err != nil {
			return nil, err
		}
		rhs, err := r.typ()
		if err != nil {
			return nil, err
		}
		arg, err := r.typ()
		if err != nil {
			return nil, err
		}
		result, err := r.typ()
		if err != nil {
			return nil, err
		}
		switch types.DeclKind(kind) {
		case types.DeclDomain:
			err = s.AddDomain(name, rhs)
		case types.DeclClass:
			err = s.AddClass(name, rhs)
		case types.DeclAssociation:
			err = s.AddAssociation(name, rhs)
		case types.DeclFunction:
			err = s.AddFunction(name, arg, result)
		default:
			err = fmt.Errorf("storage: unknown decl kind %d", kind)
		}
		if err != nil {
			return nil, err
		}
	}
	en, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < en; i++ {
		sub, err := r.str()
		if err != nil {
			return nil, err
		}
		label, err := r.str()
		if err != nil {
			return nil, err
		}
		super, err := r.str()
		if err != nil {
			return nil, err
		}
		if err := s.AddIsa(sub, label, super); err != nil {
			return nil, err
		}
	}
	return s, nil
}

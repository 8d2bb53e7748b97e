package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// TestRoundTrip checks every Writer/Reader pair: what a writer encodes, the
// matching reader decodes to the same value, consuming the record exactly.
func TestRoundTrip(t *testing.T) {
	var w Writer
	w.Raw([]byte("MAGIC"))
	uints := []uint64{0, 1, 127, 128, 300, 1 << 32, math.MaxUint64}
	for _, v := range uints {
		w.Uint(v)
	}
	ints := []int64{0, -1, 1, -64, 64, math.MinInt32, math.MaxInt32, math.MinInt64, math.MaxInt64}
	for _, v := range ints {
		w.Int(v)
	}
	w.Bool(true)
	w.Bool(false)
	strs := []string{"", "x", "héllo", string(make([]byte, 300))}
	for _, s := range strs {
		w.String(s)
	}
	i32s := [][]int32{nil, {0}, {-1, math.MinInt32, math.MaxInt32, 5}}
	for _, xs := range i32s {
		WriteI32s(&w, xs)
	}
	w.Raw([]byte{0xde, 0xad})
	if w.Len() != len(w.Bytes()) {
		t.Fatalf("Len %d, Bytes %d", w.Len(), len(w.Bytes()))
	}

	r := NewReader(w.Bytes())
	r.Expect("MAGIC")
	for _, want := range uints {
		if got := r.Uint(); got != want {
			t.Errorf("Uint: got %d, want %d", got, want)
		}
	}
	for _, want := range ints {
		if got := r.Int(); got != want {
			t.Errorf("Int: got %d, want %d", got, want)
		}
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round trip failed")
	}
	for _, want := range strs {
		if got := r.String(); got != want {
			t.Errorf("String: got %q, want %q", got, want)
		}
	}
	for _, want := range i32s {
		got := ReadI32s[int32](r)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ReadI32s: got %v, want %v", got, want)
		}
	}
	if got := r.Raw(2); !bytes.Equal(got, []byte{0xde, 0xad}) {
		t.Errorf("Raw: got %x", got)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderRejects checks that malformed records fail with the sticky
// error instead of panicking or decoding garbage.
func TestReaderRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *Reader)
	}{
		{"bad magic", []byte("NOPE"), func(r *Reader) { r.Expect("SWTB") }},
		{"short magic", []byte("SW"), func(r *Reader) { r.Expect("SWTB") }},
		{"empty uint", nil, func(r *Reader) { r.Uint() }},
		{"truncated uint", []byte{0x80}, func(r *Reader) { r.Uint() }},
		{"overlong uint", []byte{0x80, 0x00}, func(r *Reader) { r.Uint() }},
		{"overlong int", []byte{0x81, 0x80, 0x00}, func(r *Reader) { r.Int() }},
		{"overflowing uint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uint() }},
		{"bad bool", []byte{2}, func(r *Reader) { r.Bool() }},
		{"negative raw", []byte{}, func(r *Reader) { r.Raw(-1) }},
		{"raw past end", []byte{1, 2}, func(r *Reader) { r.Raw(3) }},
		{"raw overflowing offset", []byte{1, 2}, func(r *Reader) { r.Raw(1); r.Raw(math.MaxInt) }},
		{"long length", []byte{5, 'a'}, func(r *Reader) { _ = r.String() }},
		{"int32 overflow", []byte{1, 0x80, 0x80, 0x80, 0x80, 0x10}, func(r *Reader) { ReadI32s[int32](r) }},
		{"trailing bytes", []byte{1, 9}, func(r *Reader) { r.Uint() }},
	}
	for _, c := range cases {
		r := NewReader(c.data)
		c.read(r)
		if r.Done() == nil {
			t.Errorf("%s: accepted %x", c.name, c.data)
		}
		// Trailing bytes fail only Done; every other case sets the sticky
		// error, after which reads return zero values.
		if r.Err() != nil && (r.Uint() != 0 || r.Raw(0) != nil) {
			t.Errorf("%s: reads after an error must be no-ops", c.name)
		}
	}
}

// Tags of the records FuzzReader decodes: each field is a Uint tag followed
// by a value of that kind.
const (
	tagUint = iota
	tagInt
	tagBool
	tagString
	tagI32s
	tagRaw // a Uint byte count, not bounded by Len, then the bytes
)

// decodeFields reads a "WR" record of tagged fields. It returns the reader's
// error if the record is malformed.
func decodeFields(data []byte) ([]any, error) {
	r := NewReader(data)
	r.Expect("WR")
	var fields []any
	for r.Err() == nil && r.pos < len(r.data) {
		tag := r.Uint()
		var v any
		switch tag {
		case tagUint:
			v = r.Uint()
		case tagInt:
			v = r.Int()
		case tagBool:
			v = r.Bool()
		case tagString:
			v = r.String()
		case tagI32s:
			v = ReadI32s[int32](r)
		case tagRaw:
			v = r.Raw(int(r.Uint()))
		default:
			r.fail("unknown tag %d", tag)
		}
		fields = append(fields, v)
	}
	return fields, r.Done()
}

// encodeFields writes the fields back in decodeFields's format.
func encodeFields(fields []any) []byte {
	var w Writer
	w.Raw([]byte("WR"))
	for _, f := range fields {
		switch v := f.(type) {
		case uint64:
			w.Uint(tagUint)
			w.Uint(v)
		case int64:
			w.Uint(tagInt)
			w.Int(v)
		case bool:
			w.Uint(tagBool)
			w.Bool(v)
		case string:
			w.Uint(tagString)
			w.String(v)
		case []int32:
			w.Uint(tagI32s)
			WriteI32s(&w, v)
		case []byte:
			w.Uint(tagRaw)
			w.Uint(uint64(len(v)))
			w.Raw(v)
		}
	}
	return w.Bytes()
}

// FuzzReader feeds arbitrary bytes to the reader as a record of tagged
// fields: decoding must never panic, and every record it accepts must
// re-encode to exactly its input (the canonical-encoding property the
// store's decode→re-encode checks rely on). The seed corpus in
// testdata/fuzz/FuzzReader holds one accepted record of every field kind
// and one record per rejection path, including a raw byte count that
// overflows the read offset.
func FuzzReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		fields, err := decodeFields(data)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if out := encodeFields(fields); !bytes.Equal(out, data) {
			t.Fatalf("accepted record re-encodes differently:\n in %x\nout %x", data, out)
		}
	})
}

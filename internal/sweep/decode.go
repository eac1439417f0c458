package sweep

import (
	"bytes"
	"encoding"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The store's decoder.  A DirStore object only ever holds what Put wrote:
// the compact json.Marshal encoding of a recordHeader and of a report.  In
// that encoding a struct's fields appear in declaration order, an
// omitempty field may be absent, and there is no whitespace, so one
// forward pass that expects each field in turn decodes it: no validity
// pre-scan, no key lookup.  The decoder is compiled once per type from
// the struct fields and their json tags, so a new Stats field needs no
// decoder change, and it yields exactly what json.Unmarshal yields for
// everything json.Marshal writes for these types.  Anything else (white
// space, reordered, unknown or duplicate keys, trailing bytes, a bare
// null) is rejected; the store reads a rejected payload as a miss.

var (
	headerCodec = newCanonical[recordHeader]()
	reportCodec = newCanonical[telemetry.Report]()
)

// canonical decodes the compact json.Marshal encoding of a T.
type canonical[T any] struct{ fn decodeFn }

func newCanonical[T any]() canonical[T] {
	return canonical[T]{compileDecoder(reflect.TypeOf((*T)(nil)).Elem())}
}

// decode fills *v, which must be zero, from data.  On error *v holds a
// partial decode and must be discarded.
func (c canonical[T]) decode(data []byte, v *T) error {
	d := decoder{data: data}
	if !c.fn(&d, reflect.ValueOf(v).Elem()) || d.pos != len(data) {
		return fmt.Errorf("not the canonical encoding at byte %d of %d", d.pos, len(data))
	}
	return nil
}

// decoder is the read position in one input.  After a failed decodeFn,
// pos is at the innermost value or separator that could not be accepted.
type decoder struct {
	data []byte
	pos  int
}

// decodeFn decodes one value at d.pos into v, which is settable and zero.
type decodeFn func(d *decoder, v reflect.Value) bool

var (
	histType            = reflect.TypeOf(stats.Hist{})
	jsonUnmarshalerType = reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()
	jsonMarshalerType   = reflect.TypeOf((*json.Marshaler)(nil)).Elem()
	textUnmarshalerType = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()
	textMarshalerType   = reflect.TypeOf((*encoding.TextMarshaler)(nil)).Elem()
)

// compileDecoder builds the decoder for t.  It panics on a type the store
// does not decode and whose encoding it does not implement (a map, an
// array, a pointer, an interface, []byte, an embedded field, a tag option
// other than omitempty, or a custom codec other than stats.Hist's): the
// decoded types are fixed at build time, so only a code change can reach
// the panic, and the package's tests compile every type the store decodes.
func compileDecoder(t reflect.Type) decodeFn {
	if t == histType {
		return compileHist()
	}
	pt := reflect.PointerTo(t)
	for _, iface := range []reflect.Type{jsonUnmarshalerType, jsonMarshalerType, textUnmarshalerType, textMarshalerType} {
		if t.Implements(iface) || pt.Implements(iface) {
			panic(fmt.Sprintf("sweep: decoder: %v has a custom codec", t))
		}
	}
	switch t.Kind() {
	case reflect.Bool:
		return decodeBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return decodeInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return decodeUint
	case reflect.Float32, reflect.Float64:
		return decodeFloat
	case reflect.String:
		return decodeString
	case reflect.Struct:
		return compileStruct(t)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			break // json.Marshal writes []byte as base64
		}
		return compileSlice(t)
	}
	panic(fmt.Sprintf("sweep: decoder: unsupported type %v", t))
}

// field is one JSON-visible struct field: its index, the exact bytes
// json.Marshal writes before its value (`"name":`), and whether it may be
// absent.
type field struct {
	index     int
	key       []byte
	omitEmpty bool
	decode    decodeFn
}

func compileStruct(t reflect.Type) decodeFn {
	var fields []field
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		if sf.Anonymous {
			panic(fmt.Sprintf("sweep: decoder: %v embeds %s", t, sf.Name))
		}
		if !sf.IsExported() {
			continue
		}
		tag := sf.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if name == "" {
			name = sf.Name
		}
		if strings.Trim(name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-") != "" {
			panic(fmt.Sprintf("sweep: decoder: %v.%s: json name %q", t, sf.Name, name))
		}
		if opts != "" && opts != "omitempty" {
			panic(fmt.Sprintf("sweep: decoder: %v.%s: json option %q", t, sf.Name, opts))
		}
		fields = append(fields, field{
			index:     i,
			key:       []byte(strconv.Quote(name) + ":"),
			omitEmpty: opts == "omitempty",
			decode:    compileDecoder(sf.Type),
		})
	}
	return func(d *decoder, v reflect.Value) bool {
		if !d.consume('{') {
			return false
		}
		first := true
		for i := range fields {
			f := &fields[i]
			p := d.pos
			if !first {
				if p >= len(d.data) || d.data[p] != ',' {
					if f.omitEmpty {
						continue
					}
					return false
				}
				p++
			}
			if !bytes.HasPrefix(d.data[p:], f.key) {
				if f.omitEmpty {
					continue
				}
				return false
			}
			d.pos = p + len(f.key)
			if !f.decode(d, v.Field(f.index)) {
				return false
			}
			first = false
		}
		return d.consume('}')
	}
}

func compileSlice(t reflect.Type) decodeFn {
	elem := compileDecoder(t.Elem())
	return func(d *decoder, v reflect.Value) bool {
		if d.literal("null") {
			return true
		}
		if !d.consume('[') {
			return false
		}
		if d.consume(']') {
			v.Set(reflect.MakeSlice(t, 0, 0))
			return true
		}
		for n := 0; ; n++ {
			if n > 0 && !d.consume(',') {
				return d.consume(']')
			}
			v.Grow(1)
			v.SetLen(n + 1)
			if !elem(d, v.Index(n)) {
				return false
			}
		}
	}
}

// compileHist decodes a stats.Hist from its wire struct through the same
// SetWire its UnmarshalJSON uses.
func compileHist() decodeFn {
	wire := compileDecoder(reflect.TypeOf(stats.HistWire{}))
	return func(d *decoder, v reflect.Value) bool {
		var w stats.HistWire
		if !wire(d, reflect.ValueOf(&w).Elem()) {
			return false
		}
		v.Addr().Interface().(*stats.Hist).SetWire(&w)
		return true
	}
}

func (d *decoder) consume(c byte) bool {
	if d.pos < len(d.data) && d.data[d.pos] == c {
		d.pos++
		return true
	}
	return false
}

func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

func decodeBool(d *decoder, v reflect.Value) bool {
	switch {
	case d.literal("true"):
		v.SetBool(true)
	case d.literal("false"):
	default:
		return false
	}
	return true
}

// digits returns the end of the run of decimal digits starting at i.
func (d *decoder) digits(i int) int {
	for i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9' {
		i++
	}
	return i
}

// integer scans the integer part of a JSON number, an optional minus and
// digits with no leading zero, and returns its digits and the index just
// past them.
func (d *decoder) integer() (neg bool, digits []byte, end int, ok bool) {
	i := d.pos
	if i < len(d.data) && d.data[i] == '-' {
		neg = true
		i++
	}
	end = d.digits(i)
	digits = d.data[i:end]
	if len(digits) == 0 || digits[0] == '0' && len(digits) > 1 {
		return false, nil, 0, false
	}
	return neg, digits, end, true
}

// decimal is the value of at most 19 decimal digits, which cannot overflow
// a uint64.
func decimal(digits []byte) uint64 {
	var n uint64
	for _, c := range digits {
		n = n*10 + uint64(c-'0')
	}
	return n
}

// decodeInt parses in place: a report is mostly integers, and this is
// faster than strconv.ParseInt on a converted string.
func decodeInt(d *decoder, v reflect.Value) bool {
	neg, digits, end, ok := d.integer()
	if !ok || len(digits) > 19 {
		return false
	}
	u := decimal(digits)
	var n int64
	switch {
	case neg && u == 0:
		return false // json.Marshal writes integer zero as 0
	case !neg && u <= 1<<63-1:
		n = int64(u)
	case neg && u <= 1<<63:
		n = int64(-u)
	default:
		return false
	}
	if v.OverflowInt(n) {
		return false
	}
	v.SetInt(n)
	d.pos = end
	return true
}

func decodeUint(d *decoder, v reflect.Value) bool {
	neg, digits, end, ok := d.integer()
	if !ok || neg {
		return false
	}
	n, err := strconv.ParseUint(string(digits), 10, 64)
	if err != nil || v.OverflowUint(n) {
		return false
	}
	v.SetUint(n)
	d.pos = end
	return true
}

// decodeFloat accepts a JSON number (json.Marshal writes floats in both
// decimal and exponent form) and converts it as json.Unmarshal does, with
// strconv.ParseFloat at the field's precision.
func decodeFloat(d *decoder, v reflect.Value) bool {
	_, _, i, ok := d.integer()
	if !ok {
		return false
	}
	if i < len(d.data) && d.data[i] == '.' {
		end := d.digits(i + 1)
		if end == i+1 {
			return false
		}
		i = end
	}
	if i < len(d.data) && (d.data[i] == 'e' || d.data[i] == 'E') {
		i++
		if i < len(d.data) && (d.data[i] == '+' || d.data[i] == '-') {
			i++
		}
		end := d.digits(i)
		if end == i {
			return false
		}
		i = end
	}
	f, err := strconv.ParseFloat(string(d.data[d.pos:i]), v.Type().Bits())
	if err != nil || v.OverflowFloat(f) {
		return false
	}
	v.SetFloat(f)
	d.pos = i
	return true
}

func decodeString(d *decoder, v reflect.Value) bool {
	s, ok := d.str()
	if !ok {
		return false
	}
	v.SetString(s)
	return true
}

// str scans a string.  Raw bytes must be valid UTF-8 and at least 0x20;
// the escapes are the ones JSON defines, but a \u escape must name a
// non-surrogate code point in lowercase hex, as json.Marshal writes it.
func (d *decoder) str() (string, bool) {
	b := d.data
	i := d.pos
	if i >= len(b) || b[i] != '"' {
		return "", false
	}
	i++
	start := i
	ascii := true
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			raw := b[start:i]
			if !ascii && !utf8.Valid(raw) {
				return "", false
			}
			d.pos = i + 1
			return string(raw), true
		case c == '\\':
			return d.escapedStr(start)
		case c < 0x20:
			return "", false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return "", false
}

// escapedStr is str's path for a string holding an escape; start is the
// first byte after the opening quote.
func (d *decoder) escapedStr(start int) (string, bool) {
	b := d.data
	var out []byte
	for i := start; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			if !utf8.Valid(out) {
				return "", false
			}
			d.pos = i + 1
			return string(out), true
		case c < 0x20:
			return "", false
		case c != '\\':
			out = append(out, c)
			i++
			continue
		}
		if i+1 >= len(b) {
			return "", false
		}
		switch b[i+1] {
		case '"', '\\':
			out = append(out, b[i+1])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := hex4(b, i+2)
			if !ok || utf16.IsSurrogate(r) {
				return "", false
			}
			out = utf8.AppendRune(out, r)
			i += 4
		default:
			return "", false
		}
		i += 2
	}
	return "", false
}

// hex4 reads four lowercase hex digits at b[i:].
func hex4(b []byte, i int) (rune, bool) {
	if len(b)-i < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// Request bodies.  Every JSON body the API reads (PUT /v1/obj/{key}, POST
// /v1/batch, branch, merge) is read once, whole, into a buffer of its own
// (readBody) and parsed in one pass by one decoder.  For each route's shape
// it accepts exactly what encoding/json's Decoder.Decode accepts and yields
// the same values:
//
//   - a member name selects a field case-insensitively, folded as
//     encoding/json folds it;
//   - a later duplicate member wins; a repeated object member (entries,
//     meta) merges into what the earlier ones left, and null resets it; an
//     array member (items, ops) is decoded into the slice an earlier one
//     left, element by element, as Decode reuses a slice;
//   - strings decode \u escapes, surrogate pairs included, and read each
//     byte of invalid UTF-8 as U+FFFD;
//   - unknown members are skipped with their syntax checked, under the same
//     10000-level nesting limit;
//   - the body is its first value: bytes after it are ignored.
//
// A map's entries come out in body order, aliasing the body wherever a
// string needs no unescaping, so the index builds from them directly; a key
// that repeats keeps its last value (pos.BuildMap, mpt.Build), as it would
// in a Go map.  encoding/json decodes no request: it encodes responses, and
// is the test oracle of this decoder (FuzzRequestBody).
package rest

import (
	"fmt"
	"io"
	"net/http"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"forkbase/internal/pos"
	"forkbase/internal/server"
)

// bodyLimit is one byte past the longest body a route reads.
const bodyLimit = server.MaxPayload + 1

// readBody reads r's body whole into a buffer that nothing else uses, so
// what the decoder returns may alias it.  A body of declared length is read
// into one buffer one byte longer; one of unknown length grows through
// nextCap's sizes.  A body past server.MaxPayload fails with
// *http.MaxBytesError (ServeHTTP's reader cuts it there too), which
// writeBadBody answers with 413.
func readBody(r *http.Request) ([]byte, error) {
	n := nextCap(511)
	if r.ContentLength >= 0 && r.ContentLength < bodyLimit {
		n = int(r.ContentLength) + 1
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			if len(buf) == bodyLimit {
				return nil, &http.MaxBytesError{Limit: server.MaxPayload}
			}
			grown := make([]byte, len(buf), nextCap(len(buf)))
			copy(grown, buf)
			buf = grown
		}
		m, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeBody reads r's body (readBody) and decodes it with decode.
func decodeBody[T any](r *http.Request, decode func([]byte) (T, error)) (T, error) {
	buf, err := readBody(r)
	if err != nil {
		var zero T
		return zero, err
	}
	return decode(buf)
}

// nextCap is the size a body buffer of n bytes grows to: the smallest of
// bodyLimit, bodyLimit/2, bodyLimit/4, … (each rounded up) above n.  The
// sizes below bodyLimit sum to less than bodyLimit plus a byte per step, so
// a body of unknown length cut off at the cap has cost twice the cap, give
// or take a few dozen bytes.
func nextCap(n int) int {
	c := bodyLimit
	for (c+1)/2 > n {
		c = (c + 1) / 2
	}
	return c
}

// putReq is a PUT body, and the value half of a batch op.  entries is a
// pointer, as the map encoding/json decoded it into was, so a batchOp is the
// size of the op struct Decode filled: an ops slice then grows through the
// same capacities, and those decide what a repeated "ops" member finds in
// place (TestBodyShapes pins the sizes).
type putReq struct {
	kind, value string
	entries     *[]pos.Entry // map kind, in body order; nil until an object, nil again after null
	items       []string     // list and set kinds
	meta        map[string]string
}

// batchOp is one write of POST /v1/batch.
type batchOp struct {
	key, branch string
	putReq
}

// branchReq and mergeReq are the bodies of POST /v1/obj/{key}/branch and
// /merge.
type branchReq struct{ new, from string }

type mergeReq struct{ into, from, resolve, message string }

func decodePut(body []byte) (p putReq, err error) {
	d := decoder{buf: body}
	err = d.structure(func(name []byte) error { return d.putMember(&p, name) })
	return p, err
}

func decodeBatch(body []byte) (ops []batchOp, err error) {
	d := decoder{buf: body}
	err = d.structure(func(name []byte) error {
		if !named(name, "ops") {
			return d.skip()
		}
		return decodeSlice(&d, &ops, func(op *batchOp) error {
			return d.structure(func(name []byte) error {
				switch {
				case named(name, "key"):
					return d.string(&op.key)
				case named(name, "branch"):
					return d.string(&op.branch)
				}
				return d.putMember(&op.putReq, name)
			})
		})
	})
	return ops, err
}

func decodeBranch(body []byte) (b branchReq, err error) {
	d := decoder{buf: body}
	err = d.structure(func(name []byte) error {
		switch {
		case named(name, "new"):
			return d.string(&b.new)
		case named(name, "from"):
			return d.string(&b.from)
		}
		return d.skip()
	})
	return b, err
}

func decodeMerge(body []byte) (m mergeReq, err error) {
	d := decoder{buf: body}
	err = d.structure(func(name []byte) error {
		switch {
		case named(name, "into"):
			return d.string(&m.into)
		case named(name, "from"):
			return d.string(&m.from)
		case named(name, "resolve"):
			return d.string(&m.resolve)
		case named(name, "message"):
			return d.string(&m.message)
		}
		return d.skip()
	})
	return m, err
}

// putMember decodes member name of a put body into p, skipping a name
// putBody does not have.
func (d *decoder) putMember(p *putReq, name []byte) error {
	switch {
	case named(name, "kind"):
		return d.string(&p.kind)
	case named(name, "value"):
		return d.string(&p.value)
	case named(name, "entries"):
		return d.entries(&p.entries)
	case named(name, "items"):
		return decodeSlice(d, &p.items, d.string)
	case named(name, "meta"):
		return d.meta(&p.meta)
	}
	return d.skip()
}

// named reports whether a member name selects the field called field (ASCII
// lower case), as encoding/json matches a struct field: equal once both are
// case-folded, where a rune folds to the least rune of its Unicode folding
// orbit (so U+212A KELVIN SIGN selects k, and U+017F LONG S selects s).
func named(name []byte, field string) bool {
	if string(name) == field {
		return true
	}
	j := 0
	for i := 0; i < len(name); j++ {
		r, n := rune(name[i]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRune(name[i:])
		}
		i += n
		if j == len(field) || fold(r) != fold(rune(field[j])) {
			return false
		}
	}
	return j == len(field)
}

// fold is encoding/json's case fold of one rune: the least rune of its
// folding orbit, which for an ASCII letter is its upper case.
func fold(r rune) rune {
	if r < utf8.RuneSelf {
		if 'a' <= r && r <= 'z' {
			r -= 'a' - 'A'
		}
		return r
	}
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// decoder parses one request body.  Each method decodes the value at off
// (after any whitespace) and leaves off just past it.
type decoder struct {
	buf   []byte
	off   int
	depth int // objects and arrays open around off
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// structure decodes an object into a struct whose fields member decodes by
// name; null leaves the struct as it was.  A body is the one structure at
// its start: whatever follows it is not read.
func (d *decoder) structure(member func(name []byte) error) error {
	switch d.peek() {
	case '{':
		return d.object(member)
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("object")
}

// string decodes a string into *dst; null leaves *dst as it was.
func (d *decoder) string(dst *string) error {
	switch d.peek() {
	case '"':
		s, err := d.str()
		if err == nil {
			*dst = string(s)
		}
		return err
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("string")
}

// entries decodes a map kind's entries object, appending to what an earlier
// one left; null resets them.
func (d *decoder) entries(es **[]pos.Entry) error {
	switch d.peek() {
	case '{':
		if *es == nil {
			list := make([]pos.Entry, 0, 16)
			*es = &list
		}
		list := *es
		return d.object(func(key []byte) error {
			var val []byte
			switch d.peek() {
			case '"':
				var err error
				if val, err = d.str(); err != nil {
					return err
				}
			case 'n': // the zero value, as Decode stores for a null
				if err := d.literal("null"); err != nil {
					return err
				}
			default:
				return d.mismatch("string")
			}
			*list = append(*list, pos.Entry{Key: key, Val: val})
			return nil
		})
	case 'n':
		*es = nil
		return d.literal("null")
	}
	return d.mismatch("object")
}

// meta decodes the meta object into *m, adding to what an earlier one left;
// null resets it.
func (d *decoder) meta(m *map[string]string) error {
	switch d.peek() {
	case '{':
		if *m == nil {
			*m = map[string]string{}
		}
		return d.object(func(key []byte) error {
			var v string
			if err := d.string(&v); err != nil {
				return err
			}
			(*m)[string(key)] = v
			return nil
		})
	case 'n':
		*m = nil
		return d.literal("null")
	}
	return d.mismatch("object")
}

// decodeSlice decodes an array into *xs as Decode decodes one into a slice:
// element i is decoded by elem into (*xs)[i] in place, so what an earlier
// array left there is its starting point (and all of it, for a null); the
// slice is lengthened within its capacity, else by append, and cut to the
// array's length.  [] is a new empty slice; null is nil.
func decodeSlice[T any](d *decoder, xs *[]T, elem func(*T) error) error {
	switch d.peek() {
	case '[':
	case 'n':
		*xs = nil
		return d.literal("null")
	default:
		return d.mismatch("array")
	}
	s, i := *xs, 0
	err := d.array(func() error {
		switch {
		case i < len(s):
		case i < cap(s):
			s = s[:i+1]
		default:
			var zero T
			s = append(s, zero)
		}
		i++
		return elem(&s[i-1])
	})
	if s = s[:i]; i == 0 {
		s = []T{}
	}
	*xs = s
	return err
}

// object decodes the object at off, handing each member's name to member,
// which decodes its value.
func (d *decoder) object(member func(name []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		return d.close()
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for beginning of object key string")
		}
		name, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntax("after object key")
		}
		d.off++
		if err := member(name); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			return d.close()
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// array decodes the array at off, calling elem for each element.
func (d *decoder) array(elem func() error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == ']' {
		return d.close()
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case ']':
			return d.close()
		default:
			return d.syntax("after array element")
		}
	}
}

func (d *decoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	d.off++
	return nil
}

func (d *decoder) close() error {
	d.depth--
	d.off++
	return nil
}

// skip checks the syntax of the value at off, which no field takes.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(d.skip)
	case c == '"':
		_, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	return d.syntax("looking for beginning of value")
}

// mismatch answers a value of the wrong type for its field.
func (d *decoder) mismatch(want string) error {
	if d.off == len(d.buf) {
		return d.syntax("")
	}
	return fmt.Errorf("offset %d: want %s", d.off, want)
}

// syntax answers a body that is not JSON at off.
func (d *decoder) syntax(context string) error {
	if d.off >= len(d.buf) {
		return fmt.Errorf("offset %d: unexpected end of JSON input", d.off)
	}
	return fmt.Errorf("offset %d: invalid character %q %s", d.off, d.buf[d.off], context)
}

// peek skips whitespace and returns the byte at off, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.off < len(d.buf); d.off++ {
		switch c := d.buf[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (d *decoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.off == len(d.buf) || d.buf[d.off] != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// number checks the syntax of the number at off.
func (d *decoder) number() error {
	if d.buf[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off < len(d.buf) && d.buf[d.off] == '0':
		d.off++
	case !d.digits():
		return d.syntax("in numeric literal")
	}
	if d.off < len(d.buf) && d.buf[d.off] == '.' {
		d.off++
		if !d.digits() {
			return d.syntax("after decimal point in numeric literal")
		}
	}
	if d.off < len(d.buf) && (d.buf[d.off] == 'e' || d.buf[d.off] == 'E') {
		d.off++
		if d.off < len(d.buf) && (d.buf[d.off] == '+' || d.buf[d.off] == '-') {
			d.off++
		}
		if !d.digits() {
			return d.syntax("in exponent of numeric literal")
		}
	}
	return nil
}

// digits skips a run of decimal digits and reports whether there was one.
func (d *decoder) digits() bool {
	start := d.off
	for d.off < len(d.buf) && '0' <= d.buf[d.off] && d.buf[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// str decodes the string at off.  One without escapes or invalid UTF-8 is
// a slice of the body, its capacity clipped so an append cannot write into
// the body; any other is unquoted into a new slice.
func (d *decoder) str() ([]byte, error) {
	start := d.off + 1
	for i := start; i < len(d.buf); {
		switch c := d.buf[i]; {
		case c == '"':
			d.off = i + 1
			return d.buf[start:i:i], nil
		case c == '\\':
			return d.unquote(start, i)
		case c < ' ':
			d.off = i
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			i++
		default:
			r, n := utf8.DecodeRune(d.buf[i:])
			if r == utf8.RuneError && n == 1 {
				return d.unquote(start, i)
			}
			i += n
		}
	}
	d.off = len(d.buf)
	return nil, d.syntax("")
}

// unquote finishes str from i, the first byte that is not copied as it
// stands, as encoding/json unquotes: \uXXXX escapes decode, a surrogate
// that does not pair with the escape after it reads as U+FFFD, and so does
// each byte of invalid UTF-8.
func (d *decoder) unquote(start, i int) ([]byte, error) {
	b := d.buf
	out := make([]byte, i-start, i-start+32)
	copy(out, b[start:i])
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.off = i + 1
			return out, nil
		case c < ' ':
			d.off = i
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf && c != '\\':
			out = append(out, c)
			i++
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += n
		default: // an escape
			d.off = i + 1
			if i+1 == len(b) {
				return nil, d.syntax("")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
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
				r := getu4(b[i:])
				if r < 0 {
					d.off = i + 2
					return nil, d.syntax("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, getu4(b[i:])); pair != unicode.ReplacementChar {
						r = pair
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default:
				return nil, d.syntax("in string escape code")
			}
			i += 2
		}
	}
	d.off = len(b)
	return nil, d.syntax("")
}

// getu4 decodes the \uXXXX escape s begins with, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

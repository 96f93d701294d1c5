package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// maxNestingDepth is encoding/json's bound on nested arrays and objects;
// json.Unmarshal rejects a document nested deeper.
const maxNestingDepth = 10000

// placeScratch is the memory one /v1/place call reuses from the last:
// the request body, the decoder's pairs, the decisions and the encoded
// answer. Server pools it.
type placeScratch struct {
	body      bytes.Buffer
	dec       placeDecoder
	decisions []Decision
	out       []byte
}

// placeDecoder decodes a /v1/place body without reflection. It accepts
// exactly the bodies json.Unmarshal(body, &PlaceRequest{}) accepts and
// yields the same pairs:
//
//   - keys match field names with bytes.EqualFold after unescaping;
//   - members with other keys are skipped, but their values must still
//     be valid JSON nested at most maxNestingDepth deep;
//   - null leaves a field or an array element unchanged; as the value
//     of "pairs" it empties the batch;
//   - a repeated "pairs" key decodes its element i into element i of
//     the slice the earlier array left, unless an empty array or null
//     came between them;
//   - a pair field takes only an integer literal in int32 range.
//
// It stores at most maxBatch pairs. A longer array is still parsed to
// its end, because a later "pairs" key may replace it; its elements past
// maxBatch are checked but dropped.
type placeDecoder struct {
	data []byte
	pos  int
	// pairs holds every element decoded since the last null or empty
	// "pairs" value, like the backing array json.Unmarshal grows.
	pairs []Pair
	stack []byte // closing bytes of the containers open in a skipped value
}

var (
	fieldPairs = []byte("pairs")
	fieldUser  = []byte("u")
	fieldFile  = []byte("f")
)

// decode decodes body and returns the length of its pairs array, whose
// elements are d.pairs[:n] when n <= maxBatch.
func (d *placeDecoder) decode(body []byte) (n int, err error) {
	d.data, d.pos, d.pairs = body, 0, d.pairs[:0]
	d.ws()
	switch d.peek() {
	case '{':
		n, err = d.request()
	case 'n':
		err = d.literal("null")
	default:
		err = d.fail("the request must be a JSON object")
	}
	if err != nil {
		return 0, err
	}
	d.ws()
	if d.pos < len(d.data) {
		return 0, d.fail("data after the request object")
	}
	return n, nil
}

// request decodes the members of the top-level object.
func (d *placeDecoder) request() (n int, err error) {
	if d.open('}') {
		return 0, nil
	}
	for {
		raw, escaped, err := d.objectKey()
		if err != nil {
			return 0, err
		}
		if keyIs(raw, escaped, fieldPairs) {
			n, err = d.pairsValue()
		} else {
			err = d.skip(1)
		}
		if err != nil {
			return 0, err
		}
		if more, err := d.more('}'); !more || err != nil {
			return n, err
		}
	}
}

// pairsValue decodes the value of a "pairs" member and returns its
// length.
func (d *placeDecoder) pairsValue() (int, error) {
	switch d.peek() {
	case 'n':
		d.pairs = d.pairs[:0]
		return 0, d.literal("null")
	case '[':
	default:
		return 0, d.fail(`"pairs" must be an array`)
	}
	if d.open(']') {
		d.pairs = d.pairs[:0]
		return 0, nil
	}
	var sink Pair
	for n := 0; ; {
		p := &sink
		if n < maxBatch {
			if n == len(d.pairs) {
				d.pairs = append(d.pairs, Pair{})
			}
			p = &d.pairs[n]
		}
		if err := d.pair(p); err != nil {
			return 0, err
		}
		n++
		if more, err := d.more(']'); !more || err != nil {
			return n, err
		}
	}
}

// pair decodes one array element into p: an object whose "u" and "f"
// members set its fields, or null, which leaves it unchanged.
func (d *placeDecoder) pair(p *Pair) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.fail("a pair must be an object")
	}
	if d.open('}') {
		return nil
	}
	for {
		raw, escaped, err := d.objectKey()
		if err != nil {
			return err
		}
		switch {
		case keyIs(raw, escaped, fieldUser):
			err = d.int32Value(&p.User)
		case keyIs(raw, escaped, fieldFile):
			err = d.int32Value(&p.File)
		default:
			err = d.skip(3)
		}
		if err != nil {
			return err
		}
		if more, err := d.more('}'); !more || err != nil {
			return err
		}
	}
}

// int32Value decodes a member value into *v: an integer literal in int32
// range, or null, which leaves *v unchanged. Like json.Unmarshal into an
// int32, it rejects fractions, exponents and strings; -0 is 0.
func (d *placeDecoder) int32Value(v *int32) error {
	c := d.peek()
	if c == 'n' {
		return d.literal("null")
	}
	neg := c == '-'
	if neg {
		d.pos++
		c = d.peek()
	}
	var x int64
	switch {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		for ; d.pos < len(d.data); d.pos++ {
			c := d.data[d.pos]
			if c < '0' || c > '9' {
				break
			}
			if x <= math.MaxInt32+1 { // beyond, x stays out of range
				x = x*10 + int64(c-'0')
			}
		}
	default:
		return d.fail("expected an integer")
	}
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		return d.fail("expected an integer")
	}
	if neg {
		x = -x
	}
	if x < math.MinInt32 || x > math.MaxInt32 {
		return d.fail("integer out of int32 range")
	}
	*v = int32(x)
	return nil
}

// skip consumes one value of an unknown member and checks its syntax.
// depth is the number of arrays and objects open around it.
func (d *placeDecoder) skip(depth int) error {
	d.stack = d.stack[:0]
	for {
		// A value starts here.
		var err error
		switch c := d.peek(); c {
		case '{', '[':
			if depth+len(d.stack) >= maxNestingDepth {
				return d.fail("exceeded max depth")
			}
			end := c + 2 // '}' or ']'
			if d.open(end) {
				break
			}
			d.stack = append(d.stack, end)
			if end == '}' {
				if _, _, err := d.objectKey(); err != nil {
					return err
				}
			}
			continue
		case '"':
			_, _, err = d.str()
		case 't':
			err = d.literal("true")
		case 'f':
			err = d.literal("false")
		case 'n':
			err = d.literal("null")
		default:
			err = d.number()
		}
		if err != nil {
			return err
		}
		// The value ended: close the containers it completes.
		for {
			if len(d.stack) == 0 {
				return nil
			}
			end := d.stack[len(d.stack)-1]
			more, err := d.more(end)
			if err != nil {
				return err
			}
			if more {
				if end == '}' {
					if _, _, err := d.objectKey(); err != nil {
						return err
					}
				}
				break
			}
			d.stack = d.stack[:len(d.stack)-1]
		}
	}
}

// open consumes the opening byte of an array or object and the
// whitespace after it, and reports whether end closes it right away.
func (d *placeDecoder) open(end byte) bool {
	d.pos++
	d.ws()
	if d.peek() == end {
		d.pos++
		return true
	}
	return false
}

// objectKey consumes a member's key, the colon after it and the
// whitespace around both, and returns the key's raw bytes between the
// quotes.
func (d *placeDecoder) objectKey() (raw []byte, escaped bool, err error) {
	if raw, escaped, err = d.str(); err != nil {
		return nil, false, err
	}
	d.ws()
	if d.peek() != ':' {
		return nil, false, d.fail("expected ':' after an object key")
	}
	d.pos++
	d.ws()
	return raw, escaped, nil
}

// str consumes a string and returns its raw bytes between the quotes
// and whether they hold an escape.
func (d *placeDecoder) str() (raw []byte, escaped bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.fail("expected a string")
	}
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			return d.data[start : d.pos-1], escaped, nil
		case c == '\\':
			escaped = true
			d.pos++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				if d.pos+5 > len(d.data) || hex4(d.data[d.pos+1:d.pos+5]) < 0 {
					return nil, false, d.fail(`invalid \u escape`)
				}
				d.pos += 5
			default:
				return nil, false, d.fail("invalid escape in a string")
			}
		case c < 0x20:
			return nil, false, d.fail("control character in a string")
		default:
			d.pos++
		}
	}
	return nil, false, d.fail("unterminated string")
}

// number consumes a number of any JSON form.
func (d *placeDecoder) number() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return d.fail("invalid value")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return d.fail("invalid number")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return d.fail("invalid number")
		}
	}
	return nil
}

// digits consumes a run of decimal digits and reports whether there was
// one.
func (d *placeDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// literal consumes lit (true, false or null).
func (d *placeDecoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.fail("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// more consumes the separator after an array element or object member:
// true after a comma, false after the closing byte end.
func (d *placeDecoder) more(end byte) (bool, error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.pos++
		d.ws()
		return true, nil
	case end:
		d.pos++
		return false, nil
	}
	return false, d.fail(fmt.Sprintf("expected ',' or '%c'", end))
}

// ws consumes JSON whitespace.
func (d *placeDecoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the next byte, or 0 at the end of the body.
func (d *placeDecoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// fail reports a malformed body at the current offset.
func (d *placeDecoder) fail(what string) error {
	return fmt.Errorf("offset %d: %s", d.pos, what)
}

// keyIs reports whether an object key, given by its raw bytes between
// the quotes, names field. encoding/json unescapes a key and matches it
// with bytes.EqualFold, so "U", "u" and "PAIRſ" all match.
func keyIs(raw []byte, escaped bool, field []byte) bool {
	if !escaped {
		return bytes.EqualFold(raw, field)
	}
	var buf [16]byte
	key, ok := unescapeKey(buf[:0], raw)
	return ok && bytes.EqualFold(key, field)
}

// unescapeKey appends raw, a valid string body, to dst with its escapes
// decoded, and reports false once the key outgrows cap(dst): no key that
// long matches a field. It differs from encoding/json's unquoting only
// where no match can change: invalid UTF-8 is copied as it is and a
// surrogate escape becomes U+FFFD, and bytes.EqualFold reads both as
// runes that fold to no ASCII letter, as it reads what encoding/json
// makes of them.
func unescapeKey(dst, raw []byte) ([]byte, bool) {
	for i := 0; i < len(raw); i++ {
		if len(dst)+utf8.UTFMax > cap(dst) {
			return dst, false
		}
		c := raw[i]
		if c != '\\' {
			dst = append(dst, c)
			continue
		}
		i++
		switch c = raw[i]; c {
		case 'u':
			dst = utf8.AppendRune(dst, hex4(raw[i+1:i+5]))
			i += 4
			continue
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		} // '"', '\\' and '/' stand for themselves
		dst = append(dst, c)
	}
	return dst, true
}

// hex4 returns the value of four hex digits, or -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
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
		r = r<<4 | rune(c)
	}
	return r
}

// appendPlaceResponse appends the answer to a batch exactly as
// json.NewEncoder(w).Encode(&PlaceResponse{st, ds}) writes it, trailing
// newline included.
func appendPlaceResponse(b []byte, st Stamp, ds []Decision) []byte {
	b = append(b, `{"era":`...)
	b = strconv.AppendUint(b, st.Era, 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendUint(b, st.Seq, 10)
	b = append(b, `,"decisions":`...)
	if ds == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, d := range ds {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"node":`...)
			b = strconv.AppendInt(b, int64(d.Node), 10)
			b = append(b, `,"hops":`...)
			b = strconv.AppendInt(b, int64(d.Hops), 10)
			if d.Retried {
				b = append(b, `,"retried":true`...)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
)

// placeScratch is the memory one /v1/place call reuses from the last:
// the request body, the decoder's pairs, the decisions and the encoded
// answer. Server pools it.
type placeScratch struct {
	body      bytes.Buffer
	dec       placeDecoder
	decisions []Decision
	out       []byte
}

// placeDecoder decodes a /v1/place body into the pairs
// json.Unmarshal(body, &PlaceRequest{}) yields, or fails where it fails.
// The body every client sends, the shape json.Marshal writes, takes a
// fast path without reflection; any other body goes to json.Unmarshal,
// which hands the pairs array to fallbackPairs. Either way it stores at
// most maxBatch pairs.
type placeDecoder struct {
	data  []byte
	pos   int
	pairs []Pair
}

// decode decodes body and returns the length of its pairs array, whose
// elements are d.pairs[:n] when n <= maxBatch.
func (d *placeDecoder) decode(body []byte) (n int, err error) {
	if n, ok := d.fast(body); ok {
		return n, nil
	}
	// PlaceRequest with its pairs decoded by fallbackPairs, named alike
	// so that json.Unmarshal's errors name the same type.
	type PlaceRequest struct {
		Pairs fallbackPairs `json:"pairs"`
	}
	req := PlaceRequest{fallbackPairs{pairs: d.pairs[:0]}}
	err = json.Unmarshal(body, &req)
	d.pairs = req.Pairs.pairs
	if err != nil {
		return 0, err
	}
	return req.Pairs.n, nil
}

// fallbackPairs decodes a pairs array as json.Unmarshal decodes it into
// a []Pair, but one element at a time, storing the first maxBatch and
// counting the rest, so that no body costs more memory than a full
// batch. As with a slice, a repeated "pairs" key decodes into the
// elements earlier arrays left, past its own length too, and null or an
// empty array drops them.
type fallbackPairs struct {
	pairs []Pair // the elements written since the last drop
	n     int    // the length of the last array
}

// UnmarshalJSON implements json.Unmarshaler. json.Unmarshal has checked
// the whole body's syntax before calling it, so data is one valid value.
func (f *fallbackPairs) UnmarshalJSON(data []byte) error {
	if data[0] != '[' {
		// null drops the elements; any other value fails as it fails
		// into a []Pair.
		f.pairs, f.n = f.pairs[:0], 0
		return json.Unmarshal(data, new([]Pair))
	}
	dec := json.NewDecoder(&arrayValues{data: data[1 : len(data)-1]})
	n := 0
	var past Pair // decodes, and so checks, the elements past maxBatch
	for ; dec.More(); n++ {
		p := &past
		if n < maxBatch {
			if n == len(f.pairs) {
				f.pairs = append(f.pairs, Pair{})
			}
			p = &f.pairs[n]
		}
		if err := dec.Decode(p); err != nil {
			// json.Unmarshal names a pair's field by Pair and its path
			// from the root; it would rename a returned type error's
			// struct to PlaceRequest.
			if te, ok := err.(*json.UnmarshalTypeError); ok && te.Struct != "" {
				te.Field = "pairs." + te.Field
				return errors.New(te.Error())
			}
			return err
		}
	}
	if n == 0 {
		f.pairs = f.pairs[:0]
	}
	f.n = n
	return nil
}

// arrayValues reads the elements of a valid JSON array, given without
// its brackets, as a stream of values with spaces for the array's own
// commas. A json.Decoder reads such a stream one value at a time
// without allocating, where its Token API builds a syntax error it
// never returns for every literal element, such as null, that a comma
// follows.
type arrayValues struct {
	data           []byte
	pos, depth     int
	inStr, escaped bool
}

// Read implements io.Reader.
func (a *arrayValues) Read(p []byte) (int, error) {
	if a.pos == len(a.data) {
		return 0, io.EOF
	}
	n := copy(p, a.data[a.pos:])
	a.pos += n
	for i, c := range p[:n] {
		switch {
		case a.escaped:
			a.escaped = false
		case a.inStr:
			a.escaped, a.inStr = c == '\\', c != '"'
		case c == '"':
			a.inStr = true
		case c == '{' || c == '[':
			a.depth++
		case c == '}' || c == ']':
			a.depth--
		case c == ',' && a.depth == 0:
			p[i] = ' '
		}
	}
	return n, nil
}

// fast decodes a body of exactly the form {"pairs":[{"u":U,"f":F},…]}
// with at least one pair and JSON whitespace allowed between tokens,
// and reports false, leaving d.pairs in any state, on any other body.
func (d *placeDecoder) fast(body []byte) (n int, ok bool) {
	d.data, d.pos, d.pairs = body, 0, d.pairs[:0]
	if !d.token(`{`) || !d.token(`"pairs"`) || !d.token(`:`) || !d.token(`[`) {
		return 0, false
	}
	for {
		var p Pair
		if !d.token(`{`) || !d.token(`"u"`) || !d.token(`:`) || !d.int32Value(&p.User) ||
			!d.token(`,`) || !d.token(`"f"`) || !d.token(`:`) || !d.int32Value(&p.File) || !d.token(`}`) {
			return 0, false
		}
		if n < maxBatch {
			d.pairs = append(d.pairs, p)
		}
		n++
		if d.token(`]`) {
			break
		}
		if !d.token(`,`) {
			return 0, false
		}
	}
	if !d.token(`}`) {
		return 0, false
	}
	d.ws()
	return n, d.pos == len(d.data)
}

// token consumes JSON whitespace and then lit, and reports whether lit
// was there. It compares byte by byte: inlined with a constant lit, the
// loop is cheaper than a string comparison, which calls memequal.
func (d *placeDecoder) token(lit string) bool {
	d.ws()
	if len(d.data)-d.pos < len(lit) {
		return false
	}
	for i := 0; i < len(lit); i++ {
		if d.data[d.pos+i] != lit[i] {
			return false
		}
	}
	d.pos += len(lit)
	return true
}

// int32Value consumes JSON whitespace and an integer literal with no
// leading zero, fraction or exponent, and stores it in *v if it lies in
// int32 range. A fraction or an exponent fails the token after it.
func (d *placeDecoder) int32Value(v *int32) bool {
	d.ws()
	neg := d.pos < len(d.data) && d.data[d.pos] == '-'
	if neg {
		d.pos++
	}
	start := d.pos
	var x int64
	for ; d.pos < len(d.data); d.pos++ {
		c := d.data[d.pos]
		if c < '0' || c > '9' {
			break
		}
		x = x*10 + int64(c-'0') // wraps only past 18 digits, refused below
	}
	digits := d.pos - start
	if digits == 0 || digits > 10 || digits > 1 && d.data[start] == '0' {
		return false
	}
	if neg {
		x = -x
	}
	if x < math.MinInt32 || x > math.MaxInt32 {
		return false
	}
	*v = int32(x)
	return true
}

// ws consumes JSON whitespace. Every byte that can start a token lies
// above ' ', so between tokens it makes one comparison.
func (d *placeDecoder) ws() {
	for d.pos < len(d.data) && d.data[d.pos] <= ' ' {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
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

package serve

import (
	"bytes"
	"encoding/json"
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
// fast path without reflection; any other body goes to json.Unmarshal.
// It stores at most maxBatch pairs.
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
	// A fresh request: json.Unmarshal decodes into the elements a slice
	// already holds, so reused memory would leak earlier pairs.
	var req PlaceRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return 0, err
	}
	d.pairs = append(d.pairs[:0], req.Pairs[:min(len(req.Pairs), maxBatch)]...)
	return len(req.Pairs), nil
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

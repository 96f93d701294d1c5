package dist

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/xrand"
)

// checkAliasLaw rebuilds each file's draw probability from a's packed
// table in integer arithmetic, without drawing, and checks it against the
// weights w the table was built from. In units of 2⁻³² of a column,
//
//	K·2³²·P(i) = t_i + Σ_{j: alias_j = i, j ≠ i} (2³² − t_j) + [alias_i = i]·(2³² − t_i),
//
// which must sum to exactly K·2³² over all files. Against the target
// column height h_i = w_i·K/Σw, K·P(i) may be off by one quantization
// unit (2⁻³²) for i's own threshold and one for each column aliasing to
// i, plus the float construction's residue: each of i's donations rounds
// once (≤ 2⁻⁵²·(h_i+1)), and a leftover column, whose height is set to 1,
// also absorbs the global mismatch |Σh − K| and every other donation's
// rounding. P(i) must be 0 exactly when w_i is 0, and so must t_i.
func checkAliasLaw(t testing.TB, w []float64, a *Alias) {
	t.Helper()
	k := len(w)
	if a.K() != k {
		t.Fatalf("table has %d columns for %d weights", a.K(), k)
	}
	if want := uint32((1 << 32) % uint64(k)); a.zone != want {
		t.Fatalf("reject zone %d, want 2³² mod %d = %d", a.zone, k, want)
	}
	mass := make([]uint64, k)
	aliased := make([]int, k)
	for j, c := range a.cols {
		thr, al := c>>32, int(uint32(c))
		if al >= k {
			t.Fatalf("column %d aliases %d, outside [0,%d)", j, al, k)
		}
		if al == j && thr != fullColumn {
			t.Fatalf("column %d is its own alias with threshold %#x", j, thr)
		}
		if (thr == 0) != (w[j] == 0) {
			t.Fatalf("column %d: threshold %d for weight %v", j, thr, w[j])
		}
		mass[j] += thr
		mass[al] += 1<<32 - thr
		if al != j {
			aliased[al]++
		}
	}
	var total uint64
	for _, m := range mass {
		total += m
	}
	if total != uint64(k)<<32 {
		t.Fatalf("table mass %d, want K·2³² = %d", total, uint64(k)<<32)
	}

	// The targets, with the construction's summation order and scaling.
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	scale := float64(k) / sum
	h := make([]float64, k)
	hsum, comp := 0.0, 0.0 // Neumaier-compensated Σh
	rounding := 0.0        // every donation's rounding bound
	for i, x := range w {
		h[i] = x * scale
		s := hsum + h[i]
		if math.Abs(hsum) >= math.Abs(h[i]) {
			comp += (hsum - s) + h[i]
		} else {
			comp += (h[i] - s) + hsum
		}
		hsum = s
		rounding += float64(aliased[i]) * 0x1p-52 * (h[i] + 1)
	}
	global := math.Abs(hsum+comp-float64(k)) + rounding + float64(k)*0x1p-52
	for i := range w {
		if (mass[i] == 0) != (w[i] == 0) {
			t.Fatalf("file %d: P = %d·2⁻³²/K for weight %v", i, mass[i], w[i])
		}
		got := float64(mass[i]) * 0x1p-32 // K·P(i), exact
		tol := float64(1+aliased[i])*0x1p-32 + float64(aliased[i])*0x1p-52*(h[i]+1)
		if int(uint32(a.cols[i])) == i {
			tol += global
		}
		if d := math.Abs(got - h[i]); d > tol {
			t.Fatalf("file %d of %d: K·P = %v, target %v: off by %.3g > %.3g (%d aliasing columns)",
				i, k, got, h[i], d, tol, aliased[i])
		}
	}
}

// TestAliasExactLaw checks the packed table's exact law on the builder
// cases, a paper-scale Zipf and random gappy vectors. A chi² test at
// practical sample sizes cannot see a mis-scaled threshold or a donor
// mix-up; this check reads them off the table.
func TestAliasExactLaw(t *testing.T) {
	for _, w := range builderCases() {
		checkAliasLaw(t, w, NewAlias(w))
	}
	// File 0 of 1:2:0:1 lends its whole column to file 2, and 1e-300
	// next to 1e300 underflows to height 0: both stay drawable.
	for _, w := range [][]float64{{1, 2, 0, 1}, {1e300, 1e-300, 0}} {
		checkAliasLaw(t, w, NewAlias(w))
	}
	z := NewZipf(10000, 1.2)
	checkAliasLaw(t, z.PMF(), z.alias)
	for seed := uint64(0); seed < 40; seed++ {
		r := xrand.NewSource(seed).Stream(2)
		w := make([]float64, 1+r.IntN(300))
		for i := range w {
			if r.IntN(3) > 0 {
				w[i] = r.Float64() * math.Pow(10, float64(r.IntN(13)-6))
			}
		}
		w[r.IntN(len(w))] = 1 // at least one positive weight
		checkAliasLaw(t, w, NewAlias(w))
	}
}

// scriptSource is a rand.Source that returns chosen words in order and
// counts them.
type scriptSource struct {
	words []uint64
	used  int
}

func (s *scriptSource) Uint64() uint64 {
	w := s.words[s.used]
	s.used++
	return w
}

// word packs a draw's column half and coin half.
func word(hi, lo uint32) uint64 { return uint64(hi)<<32 | uint64(lo) }

// TestAliasRejectionAndWords drives the kernel with scripted words: the
// reject zone, word counts, Sample ≡ SampleBatch, and the support.
func TestAliasRejectionAndWords(t *testing.T) {
	// Weights 1:2:3 give column 0 = (½, alias 1), column 1 = (½, alias 2)
	// and column 2 full. At K = 3 the zone is 2³² mod 3 = 1: only a high
	// half of 0 rejects, whatever the low half.
	a := NewAlias([]float64{1, 2, 3})
	if a.zone != 1 {
		t.Fatalf("K=3 reject zone %d, want 1", a.zone)
	}
	const half = 1 << 31
	for _, tc := range []struct {
		words      []uint64
		want, used int
	}{
		{[]uint64{word(0, 0), word(half, half-1)}, 1, 2},           // dropped; column 1, coin accepts
		{[]uint64{word(0, 0xffffffff), word(half, half)}, 2, 2},    // dropped; column 1, coin goes to its alias
		{[]uint64{word(0, 0), word(0, 0), word(1, 0)}, 0, 3},       // two dropped; column 0 accepts
		{[]uint64{word(1, half)}, 1, 1},                            // column 0's alias
		{[]uint64{word(0xffffffff, 0xffffffff)}, 2, 1},             // full column
		{[]uint64{word(0xaaaaaaab, 0), word(0xdeadbeef, 0)}, 2, 1}, // low product half 1: kept
	} {
		src := &scriptSource{words: tc.words}
		if got := a.Sample(rand.New(src)); got != tc.want || src.used != tc.used {
			t.Errorf("words %#x: drew %d with %d words, want %d with %d", tc.words, got, src.used, tc.want, tc.used)
		}
	}

	// Power-of-two K, K = 1 included, has an empty zone: a high half of 0
	// is kept and every draw takes exactly one word.
	for _, k := range []int{1, 2, 4, 8, 1024} {
		w := make([]float64, k)
		for i := range w {
			w[i] = float64(i%3 + 1)
		}
		a := NewAlias(w)
		if a.zone != 0 {
			t.Fatalf("K=%d: reject zone %d, want 0", k, a.zone)
		}
		src := &scriptSource{words: []uint64{0, 1, word(0, 0xffffffff), word(0xffffffff, 0), ^uint64(0)}}
		dst := make([]int32, len(src.words))
		a.SampleBatch(rand.New(src), dst)
		if src.used != len(dst) {
			t.Errorf("K=%d: %d draws took %d words", k, len(dst), src.used)
		}
	}

	// Sample and SampleBatch consume the same words in the same order,
	// rejected words included, for any chunking of the batch.
	for _, k := range []int{3, 5, 6, 7, 100} {
		w := make([]float64, k)
		for i := range w {
			w[i] = float64((i * 7) % 5) // zeros at every fifth file
		}
		a := NewAlias(w)
		r := xrand.NewSource(uint64(k)).Stream(0)
		words := make([]uint64, 600)
		for i := range words {
			words[i] = r.Uint64()
			if i%4 == 1 {
				words[i] &= 0xffffffff // a high half of 0: in the zone
			}
		}
		const draws = 400
		seq := &scriptSource{words: words}
		rs := rand.New(seq)
		want := make([]int32, draws)
		for i := range want {
			want[i] = int32(a.Sample(rs))
			if w[want[i]] == 0 {
				t.Fatalf("K=%d: draw %d returned zero-weight file %d", k, i, want[i])
			}
		}
		if seq.used == draws {
			t.Fatalf("K=%d: no word was rejected", k)
		}
		for _, chunk := range []int{1, 3, 64, draws} {
			bat := &scriptSource{words: words}
			rb := rand.New(bat)
			got := make([]int32, draws)
			for base := 0; base < draws; base += chunk {
				a.SampleBatch(rb, got[base:min(base+chunk, draws)])
			}
			if bat.used != seq.used {
				t.Fatalf("K=%d chunk=%d: batch took %d words, Sample %d", k, chunk, bat.used, seq.used)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("K=%d chunk=%d: draw %d: batch %d, Sample %d", k, chunk, i, got[i], want[i])
				}
			}
		}
	}

	// Zero-weight columns never come out: aim a word at every column with
	// coins at both ends and on either side of its threshold.
	w := []float64{0, 5, 0, 0, 1, 0}
	a = NewAlias(w)
	k := uint64(len(w))
	for j := range k {
		hi := uint32((2*j + 1) << 32 / (2 * k)) // the middle of column j
		thr := uint32(a.cols[j] >> 32)
		for _, lo := range []uint32{0, 1, thr - 1, thr, thr + 1, 0xffffffff} {
			got := a.Sample(rand.New(&scriptSource{words: []uint64{word(hi, lo)}}))
			if w[got] == 0 {
				t.Fatalf("column %d coin %#x drew zero-weight file %d", j, lo, got)
			}
			want := int(j)
			if lo >= thr {
				want = int(uint32(a.cols[j]))
			}
			if got != want {
				t.Fatalf("column %d coin %#x drew %d, want %d", j, lo, got, want)
			}
		}
	}
}

// FuzzAliasTable builds tables from fuzzed weight vectors — zeros mixed
// with weights whose ratios reach 1e±300 — and checks the exact law, the
// support rule, and that Sample and SampleBatch draw the same files from
// the same PCG stream.
func FuzzAliasTable(f *testing.F) {
	for _, s := range []string{
		"\x01\x80\x96",
		"\x00\x00\x00\x01\xff\x96",
		"\x01\x01\x00\x01\xff\xff\x02\x80\x96",
		"\x03\x10\x20\x00\x00\x00\x05\x30\x40\x07\xff\x00\x00\x00\x00",
	} {
		f.Add(uint64(1), []byte(s))
	}
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		// Three bytes a weight: zero when the first is ≡ 0 mod 4, else
		// (1 + b₁)/256 · 10^(b₂·300/255 − 150).
		var w []float64
		positive := false
		for ; len(data) >= 3 && len(w) < 256; data = data[3:] {
			if data[0]%4 == 0 {
				w = append(w, 0)
				continue
			}
			e := int(data[2])*300/255 - 150
			w = append(w, float64(1+int(data[1]))/256*math.Pow(10, float64(e)))
			positive = true
		}
		if !positive {
			return
		}
		a := NewAlias(w)
		checkAliasLaw(t, w, a)
		seq := xrand.NewSource(seed).Stream(0)
		bat := xrand.NewSource(seed).Stream(0)
		dst := make([]int32, 64)
		a.SampleBatch(bat, dst)
		for i, got := range dst {
			if want := a.Sample(seq); int(got) != want {
				t.Fatalf("draw %d: batch %d, Sample %d", i, got, want)
			}
			if w[got] == 0 {
				t.Fatalf("draw %d: zero-weight file %d", i, got)
			}
		}
		if seq.Uint64() != bat.Uint64() {
			t.Fatal("Sample and SampleBatch left the stream at different words")
		}
	})
}

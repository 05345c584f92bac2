package bpu

import (
	"testing"
	"testing/quick"

	"github.com/whisper-sim/whisper/internal/xrand"
)

func TestCounterSaturation(t *testing.T) {
	c := NewCounter(2)
	for i := 0; i < 10; i++ {
		c.Update(true)
	}
	if c.Value() != 3 || !c.Taken() || !c.Confident() {
		t.Fatalf("counter after 10 taken: v=%d", c.Value())
	}
	for i := 0; i < 10; i++ {
		c.Update(false)
	}
	if c.Value() != 0 || c.Taken() || !c.Confident() {
		t.Fatalf("counter after 10 not-taken: v=%d", c.Value())
	}
}

func TestCounterInitWeak(t *testing.T) {
	c := NewCounter(3)
	if c.Value() != 4 || !c.Taken() || c.Confident() {
		t.Fatalf("3-bit counter init v=%d", c.Value())
	}
	c.Update(false)
	c.Update(false)
	if c.Value() != 2 || c.Taken() {
		t.Fatalf("two not-taken updates: v=%d", c.Value())
	}
	c.Reset()
	if c.Value() != 4 {
		t.Fatal("Reset failed")
	}
}

func TestCounterWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCounter(9)
}

func TestHistoryPushBit(t *testing.T) {
	var h History
	// Push T, NT, T, T: most recent is T (bit0), then T, NT, T.
	h.Push(true)
	h.Push(false)
	h.Push(true)
	h.Push(true)
	want := []bool{true, true, false, true}
	for i, w := range want {
		if h.Bit(i) != w {
			t.Fatalf("Bit(%d) = %v, want %v", i, h.Bit(i), w)
		}
	}
	if h.Len() != 4 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestHistoryShiftAcrossWords(t *testing.T) {
	var h History
	h.Push(true)
	for i := 0; i < 200; i++ {
		h.Push(false)
	}
	if !h.Bit(200) {
		t.Fatal("taken bit lost after crossing word boundary")
	}
	for i := 0; i < 200; i++ {
		if h.Bit(i) {
			t.Fatalf("unexpected taken bit at %d", i)
		}
	}
}

func TestHistoryRaw(t *testing.T) {
	var h History
	// Raw bit i = i-th most recent. Push NT,T,T,NT => recent-first: NT,T,T,NT
	h.Push(false)
	h.Push(true)
	h.Push(true)
	h.Push(false)
	if got := h.Raw(4); got != 0b0110 {
		t.Fatalf("Raw(4) = %04b, want 0110", got)
	}
}

func TestHistoryFoldShortEqualsRaw(t *testing.T) {
	var h History
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		h.Push(r.Bool(0.5))
	}
	// For length <= 8, the fold is the raw bits themselves.
	for l := 1; l <= 8; l++ {
		if got, want := h.Fold(l), uint8(h.Raw(l)); got != want {
			t.Fatalf("Fold(%d) = %#x, want raw %#x", l, got, want)
		}
	}
}

func TestHistoryFoldChunked(t *testing.T) {
	var h History
	// Build a known 16-bit history: chunk0 (most recent 8) and chunk1.
	// Push oldest first.
	bitsOldFirst := []uint8{ // 16 bits; index 15 pushed last = most recent
		1, 0, 1, 1, 0, 0, 1, 0, // these end up as positions 15..8
		0, 1, 1, 0, 1, 0, 0, 1, // positions 7..0
	}
	for _, b := range bitsOldFirst {
		h.Push(b == 1)
	}
	var chunk0, chunk1 uint8
	for i := 0; i < 8; i++ {
		if h.Bit(i) {
			chunk0 |= 1 << uint(i)
		}
		if h.Bit(i + 8) {
			chunk1 |= 1 << uint(i)
		}
	}
	if got := h.Fold(16); got != chunk0^chunk1 {
		t.Fatalf("Fold(16) = %#x, want %#x", got, chunk0^chunk1)
	}
}

func TestHistoryFoldPartialChunk(t *testing.T) {
	var h History
	for i := 0; i < 32; i++ {
		h.Push(i%3 == 0)
	}
	// length 11: chunk of 8 + partial chunk of 3 (unshifted).
	var c0, c1 uint8
	for i := 0; i < 8; i++ {
		if h.Bit(i) {
			c0 |= 1 << uint(i)
		}
	}
	for i := 0; i < 3; i++ {
		if h.Bit(8 + i) {
			c1 |= 1 << uint(i)
		}
	}
	if got := h.Fold(11); got != c0^c1 {
		t.Fatalf("Fold(11) = %#x, want %#x", got, c0^c1)
	}
}

func TestHistoryFoldDepthProperty(t *testing.T) {
	// Property: Fold(L) depends only on the most recent L outcomes.
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		var a, b History
		// Different prefixes deeper than L.
		for i := 0; i < 50; i++ {
			a.Push(r.Bool(0.5))
			b.Push(!a.Bit(0))
		}
		// Then 1024 shared recent outcomes.
		for i := 0; i < HistoryCapacity; i++ {
			v := r.Bool(0.5)
			a.Push(v)
			b.Push(v)
		}
		for _, l := range []int{8, 64, 200, 1024} {
			if a.Fold(l) != b.Fold(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestHistoryPanics(t *testing.T) {
	var h History
	for _, fn := range []func(){
		func() { h.Bit(HistoryCapacity) },
		func() { h.Fold(0) },
		func() { h.Fold(HistoryCapacity + 1) },
		func() { h.Raw(17) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestHashVariesWithHistory(t *testing.T) {
	var h History
	x := h.Hash(0x400100, 256)
	h.Push(true)
	y := h.Hash(0x400100, 256)
	if x == y {
		t.Fatal("hash unchanged after history push")
	}
	if h.Hash(0x400100, 256) != y {
		t.Fatal("hash not deterministic")
	}
	if h.Hash(0x400104, 256) == y {
		t.Fatal("hash ignores pc")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	b := NewBimodal(10)
	pc := uint64(0x401000)
	for i := 0; i < 10; i++ {
		b.Update(pc, true)
	}
	if !b.Predict(pc) {
		t.Fatal("bimodal did not learn taken bias")
	}
	for i := 0; i < 10; i++ {
		b.Update(pc, false)
	}
	if b.Predict(pc) {
		t.Fatal("bimodal did not learn not-taken bias")
	}
}

func TestBimodalCannotLearnAlternation(t *testing.T) {
	b := NewBimodal(10)
	pc := uint64(0x402000)
	correct := 0
	taken := false
	for i := 0; i < 2000; i++ {
		taken = !taken
		if b.Predict(pc) == taken {
			correct++
		}
		b.Update(pc, taken)
	}
	if float64(correct)/2000 > 0.7 {
		t.Fatalf("bimodal implausibly good on alternation: %d/2000", correct)
	}
}

func TestOracle(t *testing.T) {
	var o Oracle
	var p Predictor = &o
	if _, ok := p.(OraclePrimer); !ok {
		t.Fatal("Oracle does not implement OraclePrimer")
	}
	o.Prime(true)
	if !p.Predict(0) {
		t.Fatal("oracle wrong after Prime(true)")
	}
	o.Prime(false)
	if p.Predict(0) {
		t.Fatal("oracle wrong after Prime(false)")
	}
}

func TestStatic(t *testing.T) {
	s := &Static{Taken: true}
	if !s.Predict(1) || s.Name() != "static-taken" {
		t.Fatal("static taken misbehaves")
	}
	n := &Static{}
	if n.Predict(1) || n.Name() != "static-not-taken" {
		t.Fatal("static not-taken misbehaves")
	}
}

func BenchmarkHistoryPush(b *testing.B) {
	var h History
	for i := 0; i < b.N; i++ {
		h.Push(i&1 == 0)
	}
}

func BenchmarkFold1024(b *testing.B) {
	var h History
	for i := 0; i < HistoryCapacity; i++ {
		h.Push(i%3 == 0)
	}
	for i := 0; i < b.N; i++ {
		h.Fold(HistoryCapacity)
	}
}

func TestGeomLengths(t *testing.T) {
	ls := GeomLengths(8, 1024, 16)
	if len(ls) != 16 {
		t.Fatalf("got %d lengths", len(ls))
	}
	if ls[0] != 8 || ls[15] != 1024 {
		t.Fatalf("endpoints %d..%d, want 8..1024", ls[0], ls[15])
	}
	for i := 1; i < len(ls); i++ {
		if ls[i] <= ls[i-1] {
			t.Fatalf("series not strictly increasing at %d: %v", i, ls)
		}
	}
	// Ratio between consecutive terms should be roughly constant (~1.38).
	for i := 2; i < len(ls); i++ {
		r := float64(ls[i]) / float64(ls[i-1])
		if r < 1.2 || r > 1.6 {
			t.Fatalf("ratio %v at index %d outside geometric band: %v", r, i, ls)
		}
	}
}

func TestGeomLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GeomLengths(0, 1024, 16)
}

// TestHashPlannedMatchesHash locks the precompiled plan kernel to Hash.
func TestHashPlannedMatchesHash(t *testing.T) {
	rng := xrand.New(11)
	lens := []int{4, 6, 9, 13, 19, 29, 43, 64, 96, 143, 214, 320, 480, 720, 1024, 8, 16, 32, 1, 63, 65}
	plan := MakeHashPlan(lens)
	out := make([]uint64, len(lens))
	var h History
	for step := 0; step < 2000; step++ {
		h.Push(rng.Bool(0.5))
		pc := rng.Uint64()
		h.HashPlanned(pc, plan, out)
		for i, l := range lens {
			if want := h.Hash(pc, l); out[i] != want {
				t.Fatalf("step %d len %d: HashPlanned %#x != Hash %#x", step, l, out[i], want)
			}
		}
	}
}

// foldChunked is the chunk-at-a-time fold Fold replaced: XOR the most
// recent length outcomes 8 bits at a time, the trailing partial chunk
// unshifted. It stays as the reference the word-level kernels must equal.
func foldChunked(h *History, length int) uint8 {
	var f uint8
	for off := 0; off < length; off += 8 {
		n := length - off
		if n > 8 {
			n = 8
		}
		f ^= uint8(h.extract(off, n))
	}
	return f
}

// TestFoldMatchesChunked locks the word-level Fold to the chunked
// reference at every length, as the history fills past capacity.
func TestFoldMatchesChunked(t *testing.T) {
	r := xrand.New(11)
	var h History
	for step := 0; step < 1500; step++ {
		h.Push(r.Bool(0.5))
		if step%97 != 0 && step < 1400 {
			continue
		}
		for l := 1; l <= HistoryCapacity; l++ {
			if got, want := h.Fold(l), foldChunked(&h, l); got != want {
				t.Fatalf("step %d: Fold(%d) = %#x, chunked %#x", step, l, got, want)
			}
		}
	}
}

// TestFoldPlannedMatchesFold locks the many-lengths fold to per-length
// Fold, for the Table III series and for unsorted odd lengths.
func TestFoldPlannedMatchesFold(t *testing.T) {
	r := xrand.New(12)
	for _, lens := range [][]int{DefaultGeomLengths, {1024, 3, 64, 65, 1, 640, 127, 128, 999}} {
		plan := MakeHashPlan(lens)
		out := make([]uint8, len(lens))
		var h History
		for step := 0; step < 2000; step++ {
			h.Push(r.Bool(0.3))
			h.FoldPlanned(plan, out)
			for i, l := range lens {
				if want := h.Fold(l); out[i] != want {
					t.Fatalf("step %d len %d: FoldPlanned %#x != Fold %#x", step, l, out[i], want)
				}
			}
		}
	}
}

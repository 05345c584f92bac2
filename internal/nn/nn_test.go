package nn

import (
	"math"
	"testing"

	"github.com/whisper-sim/whisper/internal/xrand"
)

func TestDenseForwardShape(t *testing.T) {
	r := xrand.New(1)
	d := NewDense(3, 2, r)
	out := d.Forward([]float64{1, 0, -1})
	if len(out) != 2 {
		t.Fatalf("output len %d", len(out))
	}
	if d.NumParams() != 3*2+2 {
		t.Fatalf("params %d", d.NumParams())
	}
}

func TestDenseInputMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDense(3, 2, xrand.New(1)).Forward([]float64{1})
}

func TestDenseGradientNumerically(t *testing.T) {
	// Finite-difference check of dLoss/dW for a single dense layer with
	// squared loss L = 0.5*out^2 (i.e. dout = out).
	r := xrand.New(2)
	d := NewDense(3, 1, r)
	x := []float64{0.5, -1.2, 2.0}
	out := d.Forward(x)
	d.Backward([]float64{out[0]})
	analytic := append([]float64(nil), d.gw...)
	const eps = 1e-6
	for i := range d.W {
		orig := d.W[i]
		d.W[i] = orig + eps
		lp := 0.5 * d.Forward(x)[0] * d.Forward(x)[0]
		d.W[i] = orig - eps
		lm := 0.5 * d.Forward(x)[0] * d.Forward(x)[0]
		d.W[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > 1e-4 {
			t.Fatalf("W[%d]: numeric %v analytic %v", i, numeric, analytic[i])
		}
	}
}

func TestConvGradientNumerically(t *testing.T) {
	r := xrand.New(3)
	c := NewConv1D(6, 3, 2, r)
	x := []float64{1, 0, 1, 1, 0, 1}
	forward := func() float64 {
		sum := 0.0
		for _, v := range c.Forward(x) {
			sum += v * v
		}
		return 0.5 * sum
	}
	c.Backward(append([]float64(nil), c.Forward(x)...))
	analytic := append([]float64(nil), c.gw...)
	const eps = 1e-6
	for i := range c.W {
		orig := c.W[i]
		c.W[i] = orig + eps
		lp := forward()
		c.W[i] = orig - eps
		lm := forward()
		c.W[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-analytic[i]) > 1e-4 {
			t.Fatalf("conv W[%d]: numeric %v analytic %v", i, numeric, analytic[i])
		}
	}
}

func TestReLU(t *testing.T) {
	var r ReLU
	out := r.Forward([]float64{-1, 0, 2})
	if out[0] != 0 || out[1] != 0 || out[2] != 2 {
		t.Fatalf("relu out %v", out)
	}
	din := r.Backward([]float64{5, 5, 5})
	if din[0] != 0 || din[2] != 5 {
		t.Fatalf("relu grad %v", din)
	}
}

func mlp(seed uint64, in int, hidden int) *Network {
	r := xrand.New(seed)
	return &Network{Layers: []Layer{
		NewDense(in, hidden, r),
		&ReLU{},
		NewDense(hidden, 1, r),
	}}
}

func TestMLPLearnsXOR(t *testing.T) {
	n := mlp(4, 2, 8)
	data := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 3000; epoch++ {
		for i, x := range data {
			n.TrainStep(x, labels[i], 0.1)
		}
	}
	for i, x := range data {
		if n.PredictTaken(x) != (labels[i] == 1) {
			t.Fatalf("XOR(%v) mispredicted after training", x)
		}
	}
}

func TestMLPLearnsAND(t *testing.T) {
	n := mlp(5, 2, 4)
	data := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []float64{0, 0, 0, 1}
	for epoch := 0; epoch < 1500; epoch++ {
		for i, x := range data {
			n.TrainStep(x, labels[i], 0.1)
		}
	}
	for i, x := range data {
		if n.PredictTaken(x) != (labels[i] == 1) {
			t.Fatalf("AND(%v) mispredicted", x)
		}
	}
}

func TestConvNetLearnsPatternDetection(t *testing.T) {
	// Label = 1 iff the motif 1,1,0 appears anywhere in the 12-bit input:
	// a conv filter detects it at each position and the dense layers OR
	// the positions, BranchNet's layer order.
	r := xrand.New(6)
	conv := NewConv1D(12, 3, 4, r)
	net := &Network{Layers: []Layer{
		conv,
		&ReLU{},
		NewDense(4*conv.Positions(), 6, r),
		&ReLU{},
		NewDense(6, 1, r),
	}}
	gen := func(rr *xrand.Rand) ([]float64, float64) {
		x := make([]float64, 12)
		for i := range x {
			if rr.Bool(0.4) {
				x[i] = 1
			}
		}
		label := 0.0
		for p := 0; p+2 < 12; p++ {
			if x[p] == 1 && x[p+1] == 1 && x[p+2] == 0 {
				label = 1
				break
			}
		}
		return x, label
	}
	rr := xrand.New(7)
	for step := 0; step < 30000; step++ {
		x, y := gen(rr)
		net.TrainStep(x, y, 0.02)
	}
	correct, total := 0, 0
	test := xrand.New(8)
	for i := 0; i < 1000; i++ {
		x, y := gen(test)
		if net.PredictTaken(x) == (y == 1) {
			correct++
		}
		total++
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Fatalf("conv net accuracy %v on motif detection", acc)
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	n := mlp(9, 4, 8)
	r := xrand.New(10)
	sample := func() ([]float64, float64) {
		x := make([]float64, 4)
		for i := range x {
			if r.Bool(0.5) {
				x[i] = 1
			}
		}
		y := 0.0
		if x[0] == 1 && x[2] == 0 {
			y = 1
		}
		return x, y
	}
	early, late := 0.0, 0.0
	const steps = 8000
	for i := 0; i < steps; i++ {
		x, y := sample()
		l := n.TrainStep(x, y, 0.05)
		if i < 500 {
			early += l
		}
		if i >= steps-500 {
			late += l
		}
	}
	if late >= early*0.5 {
		t.Fatalf("loss did not decrease: early %v late %v", early/500, late/500)
	}
}

func TestNetworkSizeBytes(t *testing.T) {
	n := mlp(11, 8, 4)
	want := 4 * ((8*4 + 4) + (4*1 + 1))
	if n.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", n.SizeBytes(), want)
	}
}

func TestDeterministicTraining(t *testing.T) {
	run := func() float64 {
		n := mlp(12, 2, 4)
		r := xrand.New(13)
		loss := 0.0
		for i := 0; i < 200; i++ {
			x := []float64{float64(i % 2), float64((i / 2) % 2)}
			y := float64(i % 2)
			loss += n.TrainStep(x, y, 0.1)
			_ = r
		}
		return loss
	}
	if run() != run() {
		t.Fatal("training not deterministic")
	}
}

func BenchmarkTrainStep(b *testing.B) {
	r := xrand.New(1)
	conv := NewConv1D(32, 4, 4, r)
	net := &Network{Layers: []Layer{
		conv, &ReLU{},
		NewDense(4*conv.Positions(), 8, r), &ReLU{}, NewDense(8, 1, r),
	}}
	x := make([]float64, 32)
	for i := range x {
		x[i] = float64(i & 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainStep(x, 1, 0.05)
	}
}

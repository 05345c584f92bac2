// Package nn is a minimal neural-network framework sufficient to train the
// per-branch convolutional predictors of the BranchNet baseline (Zangeneh
// et al., MICRO 2020) on commodity CPUs.
//
// The framework supports exactly what BranchNet needs: 1-D valid
// convolution over the binary branch-history sequence, dense layers,
// ReLU, and binary cross-entropy with logits trained by plain SGD.
// It is deterministic: weight initialization and sample order derive from
// explicit xrand seeds.
package nn

import (
	"math"

	"github.com/whisper-sim/whisper/internal/xrand"
)

// Layer is a differentiable network stage. Forward and Backward must be
// called in matched pairs; Backward accumulates parameter gradients which
// Step applies and clears.
type Layer interface {
	// Forward computes the layer output for in. The returned slice is
	// owned by the layer and valid until the next Forward.
	Forward(in []float64) []float64
	// Backward consumes dLoss/dOut and returns dLoss/dIn, accumulating
	// parameter gradients.
	Backward(dout []float64) []float64
	// Step applies accumulated gradients with learning rate lr and
	// clears them.
	Step(lr float64)
	// NumParams returns the number of trainable parameters.
	NumParams() int
}

// Dense is a fully connected layer: out = W·in + b.
type Dense struct {
	In, Out int
	W       []float64 // Out x In, row-major
	B       []float64

	gw, gb []float64
	lastIn []float64
	out    []float64
	din    []float64
}

// NewDense creates a dense layer with Xavier-uniform initialization.
func NewDense(in, out int, rng *xrand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:   make([]float64, in*out),
		B:   make([]float64, out),
		gw:  make([]float64, in*out),
		gb:  make([]float64, out),
		out: make([]float64, out),
		din: make([]float64, in),
	}
	scale := math.Sqrt(6.0 / float64(in+out))
	for i := range d.W {
		d.W[i] = (2*rng.Float64() - 1) * scale
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(in []float64) []float64 {
	if len(in) != d.In {
		panic("nn: dense input size mismatch")
	}
	d.lastIn = in
	for o := 0; o < d.Out; o++ {
		sum := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, v := range in {
			sum += row[i] * v
		}
		d.out[o] = sum
	}
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(dout []float64) []float64 {
	for i := range d.din {
		d.din[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := dout[o]
		d.gb[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.gw[o*d.In : (o+1)*d.In]
		for i, v := range d.lastIn {
			grow[i] += g * v
			d.din[i] += g * row[i]
		}
	}
	return d.din
}

// Step implements Layer.
func (d *Dense) Step(lr float64) {
	for i := range d.W {
		d.W[i] -= lr * d.gw[i]
		d.gw[i] = 0
	}
	for i := range d.B {
		d.B[i] -= lr * d.gb[i]
		d.gb[i] = 0
	}
}

// NumParams implements Layer.
func (d *Dense) NumParams() int { return len(d.W) + len(d.B) }

// Conv1D is a single-input-channel 1-D valid convolution with F filters of
// the given width: output is filter-major, length F*(inLen-width+1).
type Conv1D struct {
	InLen, Width, Filters int
	W                     []float64 // Filters x Width
	B                     []float64

	gw, gb []float64
	lastIn []float64
	out    []float64
	din    []float64
}

// NewConv1D creates the convolution with Xavier-uniform initialization.
func NewConv1D(inLen, width, filters int, rng *xrand.Rand) *Conv1D {
	if width > inLen {
		panic("nn: conv width exceeds input length")
	}
	positions := inLen - width + 1
	c := &Conv1D{
		InLen: inLen, Width: width, Filters: filters,
		W:   make([]float64, filters*width),
		B:   make([]float64, filters),
		gw:  make([]float64, filters*width),
		gb:  make([]float64, filters),
		out: make([]float64, filters*positions),
		din: make([]float64, inLen),
	}
	scale := math.Sqrt(6.0 / float64(width+filters))
	for i := range c.W {
		c.W[i] = (2*rng.Float64() - 1) * scale
	}
	return c
}

// Positions returns the number of output positions per filter.
func (c *Conv1D) Positions() int { return c.InLen - c.Width + 1 }

// Forward implements Layer.
func (c *Conv1D) Forward(in []float64) []float64 {
	if len(in) != c.InLen {
		panic("nn: conv input size mismatch")
	}
	c.lastIn = in
	pos := c.Positions()
	for f := 0; f < c.Filters; f++ {
		w := c.W[f*c.Width : (f+1)*c.Width]
		for p := 0; p < pos; p++ {
			sum := c.B[f]
			for k := 0; k < c.Width; k++ {
				sum += w[k] * in[p+k]
			}
			c.out[f*pos+p] = sum
		}
	}
	return c.out
}

// Backward implements Layer.
func (c *Conv1D) Backward(dout []float64) []float64 {
	for i := range c.din {
		c.din[i] = 0
	}
	pos := c.Positions()
	for f := 0; f < c.Filters; f++ {
		w := c.W[f*c.Width : (f+1)*c.Width]
		gw := c.gw[f*c.Width : (f+1)*c.Width]
		for p := 0; p < pos; p++ {
			g := dout[f*pos+p]
			c.gb[f] += g
			for k := 0; k < c.Width; k++ {
				gw[k] += g * c.lastIn[p+k]
				c.din[p+k] += g * w[k]
			}
		}
	}
	return c.din
}

// Step implements Layer.
func (c *Conv1D) Step(lr float64) {
	for i := range c.W {
		c.W[i] -= lr * c.gw[i]
		c.gw[i] = 0
	}
	for i := range c.B {
		c.B[i] -= lr * c.gb[i]
		c.gb[i] = 0
	}
}

// NumParams implements Layer.
func (c *Conv1D) NumParams() int { return len(c.W) + len(c.B) }

// ReLU is the rectifier nonlinearity.
type ReLU struct {
	out []float64
	din []float64
}

// Forward implements Layer.
func (r *ReLU) Forward(in []float64) []float64 {
	if cap(r.out) < len(in) {
		r.out = make([]float64, len(in))
		r.din = make([]float64, len(in))
	}
	r.out = r.out[:len(in)]
	r.din = r.din[:len(in)]
	for i, v := range in {
		if v > 0 {
			r.out[i] = v
		} else {
			r.out[i] = 0
		}
	}
	return r.out
}

// Backward implements Layer.
func (r *ReLU) Backward(dout []float64) []float64 {
	for i, v := range r.out {
		if v > 0 {
			r.din[i] = dout[i]
		} else {
			r.din[i] = 0
		}
	}
	return r.din
}

// Step implements Layer.
func (r *ReLU) Step(float64) {}

// NumParams implements Layer.
func (r *ReLU) NumParams() int { return 0 }

// Network is a sequential stack of layers ending in a single logit.
type Network struct {
	Layers []Layer
}

// Forward returns the network's raw logit for x.
func (n *Network) Forward(x []float64) float64 {
	cur := x
	for _, l := range n.Layers {
		cur = l.Forward(cur)
	}
	if len(cur) != 1 {
		panic("nn: network must end in a single logit")
	}
	return cur[0]
}

// PredictTaken thresholds the logit at zero (sigmoid 0.5).
func (n *Network) PredictTaken(x []float64) bool { return n.Forward(x) >= 0 }

// TrainStep runs one SGD step on (x, y) with binary cross-entropy on the
// logit and returns the loss. y must be 0 or 1.
func (n *Network) TrainStep(x []float64, y, lr float64) float64 {
	logit := n.Forward(x)
	// Numerically stable BCE-with-logits.
	p := sigmoid(logit)
	loss := -y*logSafe(p) - (1-y)*logSafe(1-p)
	grad := []float64{p - y}
	cur := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		cur = n.Layers[i].Backward(cur)
	}
	for _, l := range n.Layers {
		l.Step(lr)
	}
	return loss
}

// NumParams returns the trainable parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		total += l.NumParams()
	}
	return total
}

// SizeBytes returns the storage footprint at 32-bit weights, the unit the
// BranchNet storage budgets are expressed in.
func (n *Network) SizeBytes() int { return 4 * n.NumParams() }

func sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

func logSafe(p float64) float64 {
	if p < 1e-12 {
		p = 1e-12
	}
	return math.Log(p)
}

package trace

// DefaultBlockSize is the record-block granularity of pipeline.Run and
// of the block-wise offline passes: large enough to amortize per-block
// dispatch, small enough that the parallel slices of one block stay
// cache-resident.
const DefaultBlockSize = 4096

// Block is a reusable fixed-capacity batch of records in
// structure-of-arrays layout: the i-th record is
// (PC[i], Target[i], Kind[i], Taken[i], Instrs[i]) for i < N. Producers
// fill blocks (see Fill and the BlockFiller interface) and pipeline.Run
// consumes them whole, so the per-record interface dispatch of the
// Stream protocol disappears from the hot loop.
type Block struct {
	PC     []uint64
	Target []uint64
	Kind   []Kind
	Taken  []bool
	Instrs []uint32
	// N is the number of valid records; the slices are sized to the
	// block's fixed capacity.
	N int
}

// NewBlock allocates a block with the given capacity (DefaultBlockSize
// when size <= 0).
func NewBlock(size int) *Block {
	if size <= 0 {
		size = DefaultBlockSize
	}
	return &Block{
		PC:     make([]uint64, size),
		Target: make([]uint64, size),
		Kind:   make([]Kind, size),
		Taken:  make([]bool, size),
		Instrs: make([]uint32, size),
	}
}

// Cap returns the block's fixed capacity.
func (b *Block) Cap() int { return len(b.PC) }

// Reset empties the block for reuse.
func (b *Block) Reset() { b.N = 0 }

// Append adds one record; it panics when the block is full.
func (b *Block) Append(rec *Record) {
	i := b.N
	b.PC[i] = rec.PC
	b.Target[i] = rec.Target
	b.Kind[i] = rec.Kind
	b.Taken[i] = rec.Taken
	b.Instrs[i] = rec.Instrs
	b.N = i + 1
}

// Record materializes record i into rec.
func (b *Block) Record(i int, rec *Record) {
	rec.PC = b.PC[i]
	rec.Target = b.Target[i]
	rec.Kind = b.Kind[i]
	rec.Taken = b.Taken[i]
	rec.Instrs = b.Instrs[i]
}

// Records copies the block's contents into a fresh slice (test helper).
func (b *Block) Records() []Record {
	out := make([]Record, b.N)
	for i := range out {
		b.Record(i, &out[i])
	}
	return out
}

// BlockFiller is implemented by streams that can fill a whole block
// without going through the per-record Next protocol (the synthetic
// workload generator does). FillBlock resets b, appends up to Cap()
// records, and returns b.N; zero means end of stream. Records delivered
// through FillBlock and Next must be identical.
type BlockFiller interface {
	FillBlock(b *Block) int
}

// Fill loads the next block from s: via the producer's own FillBlock
// when available, otherwise by draining Next into the block. It returns
// the number of records filled; zero means end of stream.
func Fill(s Stream, b *Block) int {
	if f, ok := s.(BlockFiller); ok {
		return f.FillBlock(b)
	}
	b.Reset()
	var rec Record
	for b.N < b.Cap() && s.Next(&rec) {
		b.Append(&rec)
	}
	return b.N
}

package snoop

import (
	"io"
	"sync"
	"sync/atomic"
)

// BlockHeadroom is the space in front of every pool block's read area.
// The partial record the previous block ended on is copied there, so a
// record straddling two blocks costs a copy of its own bytes, not of
// the block; a partial record longer than this is joined in a one-off
// buffer instead.
const BlockHeadroom = 16 << 10

// Block is one read's worth of a capture stream in a buffer with
// BlockHeadroom in front. It belongs to a BlockPool: the goroutine that
// fills it (Fill) hands it to a scanner through a BlockSource, and the
// pool gets it back once the scanner and every batch decoded from it
// have released it.
type Block struct {
	buf   []byte // start bytes of headroom, then the read area
	start int
	n     int   // bytes read into buf[start:]
	err   error // the error the read returned along with those bytes
	refs  atomic.Int32
	pool  *BlockPool
}

// Fill reads once from r into the block's read area and records what
// the read returned; a read that returns neither bytes nor an error is
// retried. It returns the read error, which ends the stream after the
// block's bytes: a filler must not fill another block after one.
func (b *Block) Fill(r io.Reader) error {
	for {
		n, err := r.Read(b.buf[b.start:])
		if n > 0 || err != nil {
			b.n, b.err = n, err
			return err
		}
	}
}

func (b *Block) release() {
	if b.refs.Add(-1) == 0 {
		b.pool.put(b)
	}
}

// BlockPool is the set of blocks one stream reads into. A bounded pool
// (NewBlockPool) allocates at most depth blocks, lazily, and Get waits
// for one to come back when all are out: that is the stream's
// read-ahead bound, depth × (blockBytes + BlockHeadroom) bytes. The
// pool behind a plain io.Reader scan is unbounded and never waits.
type BlockPool struct {
	free       chan *Block
	done       chan struct{}
	closeOnce  sync.Once
	blockBytes int
	depth      int // 0: unbounded
	made       int // blocks allocated; touched only by Get's caller
}

// NewBlockPool returns a bounded pool of depth blocks of blockBytes
// each (plus BlockHeadroom). Get and Close may be called from one
// filling goroutine and any other; blocks return from wherever their
// batches are released.
func NewBlockPool(depth, blockBytes int) *BlockPool {
	depth = max(depth, 2)
	return &BlockPool{free: make(chan *Block, depth), done: make(chan struct{}),
		blockBytes: blockBytes, depth: depth}
}

// Get returns a free block with a reference for the caller, waiting
// while a bounded pool has every block out. It returns nil once the
// pool is closed.
func (p *BlockPool) Get() *Block {
	var b *Block
	select {
	case b = <-p.free:
	default:
		if p.depth == 0 || p.made < p.depth {
			p.made++
			b = &Block{buf: make([]byte, BlockHeadroom+p.blockBytes), start: BlockHeadroom, pool: p}
			break
		}
		select {
		case b = <-p.free:
		case <-p.done:
			return nil
		}
	}
	b.n, b.err = 0, nil
	b.refs.Store(1)
	return b
}

// Close makes Get return nil from now on, waking a caller waiting for a
// block. Blocks released after Close are left to the garbage collector.
func (p *BlockPool) Close() {
	if p.done != nil {
		p.closeOnce.Do(func() { close(p.done) })
	}
}

// put returns a block nobody references. The free channel holds every
// block a bounded pool allocates, so the send never blocks; an
// unbounded pool keeps a few and drops the rest.
func (p *BlockPool) put(b *Block) {
	select {
	case p.free <- b:
	default:
	}
}

// BlockSource hands a scanner a stream's blocks in order, each with one
// reference that passes to the scanner. A block whose read ended with an
// error is the last; Next returning nil means the source was closed
// without one.
type BlockSource interface {
	Next() *Block
}

// readerSource is the synchronous block source of a plain io.Reader:
// every block is one Fill on the scanning goroutine.
type readerSource struct {
	r    io.Reader
	pool *BlockPool
}

func (s *readerSource) Next() *Block {
	b := s.pool.Get()
	_ = b.Fill(s.r)
	return b
}

func newReaderSource(r io.Reader, blockBytes int) *readerSource {
	// A few spare blocks cover batches a caller keeps across calls.
	pool := &BlockPool{free: make(chan *Block, 4), blockBytes: max(blockBytes, 4<<10)}
	return &readerSource{r: r, pool: pool}
}

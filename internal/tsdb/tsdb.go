// Package tsdb is an embedded, append-only, crash-safe time-series/KV
// store: the durable memory behind blapd's otherwise ephemeral output.
// The daemon's JSONL findings and /metrics snapshots answer "what is
// happening right now"; this store answers "what happened to stream 7
// in the last 24 hours" — the question Stealtooth-style re-pairing
// abuse (detectable only against a device's historical pairing
// baseline) and Happy-MitM-style UI blindness (where the forensic
// record is the only place the compromise is visible) turn from a
// nicety into a requirement.
//
// Layout is one directory per series class (findings, stream-end
// statuses, histogram snapshots, ...), each holding a sequence of
// segment files. A segment is a fixed header followed by length-prefixed
// CRC-framed records; a frame carries a wall-clock timestamp (the time
// index), a uint64 key (the KV half — stream id for event series, zero
// for global series), and an opaque payload. The store never seeks and
// never rewrites in place: appends go to the tail of the active
// segment, segments seal at a size threshold, and the only mutations of
// sealed segments are whole-file replacement (downsampling, via
// write-temp-then-rename) and whole-file deletion (retention) — the
// discipline that makes recovery a scan, not a repair.
//
// Crash safety is the snoop.BatchScanner discipline applied to our own
// files: a torn tail — a crash mid-write, a full disk, a truncated copy
// — is detected by the length/CRC framing, and Open truncates the
// segment back to the last intact frame. Everything appended before the
// tear survives byte-for-byte; the tear itself costs at most the frames
// after the last clean boundary (bounded by the write buffer, see
// Options.SyncEvery).
//
// Retention and downsampling run in a background compactor (or via an
// explicit Compact call): segments whose newest frame has aged past the
// retention window are deleted whole, and series with a registered
// Downsampler have their aged segments rewritten with frames merged
// into coarser time windows — how histogram snapshots decay from
// per-interval resolution to per-hour resolution instead of being
// either hoarded or lost.
//
// Concurrency: every method is safe for concurrent use. Appends to
// different series never contend; appends to one series serialize on
// that series' mutex. Queries snapshot the segment list and then read
// files without holding the lock, so a long historical scan never
// stalls the append path; a reader that races the tail of the active
// segment simply stops at the first incomplete frame (it does not
// truncate — only Open repairs).
package tsdb

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Downsampler describes how one series' frames decay as they age:
// sealed segments whose newest frame is older than After are rewritten
// with every Window of frames merged into one by Merge.
type Downsampler struct {
	// After is the age at which a sealed segment becomes eligible for
	// downsampling (measured from its newest frame to Options.Now).
	After time.Duration
	// Window is the coarser resolution: frames whose timestamps fall in
	// the same Window-sized bucket are merged into one frame.
	Window time.Duration
	// Merge folds one window's frames (ascending append order, never
	// empty) into a single frame. Returning an error aborts the segment's
	// rewrite (the original is kept untouched and retried next cycle).
	Merge func(window []Frame) (Frame, error)
}

// Options configures a Store. The zero value of every field except Dir
// selects a sensible default.
type Options struct {
	// Dir is the store's root directory; created if missing. Required.
	Dir string
	// SegmentBytes is the size at which the active segment seals and a
	// new one starts. Default 4 MiB.
	SegmentBytes int64
	// Retention is how long frames are kept: sealed segments whose
	// newest frame is older than this are deleted by compaction. Zero
	// keeps everything.
	Retention time.Duration
	// CompactEvery is the background compaction interval. Default 1
	// minute; <0 disables the background loop (Compact can still be
	// called explicitly). The loop only runs when Retention or a
	// Downsampler gives it something to do.
	CompactEvery time.Duration
	// SyncEvery bounds the durability window: the active segment is
	// flushed to the OS this often. Default 1s; <0 flushes only on
	// segment seal, query, and Close. (Flush hands frames to the kernel;
	// Sync forces them to media — callers needing fsync semantics call
	// Store.Sync explicitly.)
	SyncEvery time.Duration
	// Downsample maps series names to their decay policy.
	Downsample map[string]Downsampler
	// Now overrides the clock used for retention and downsampling age
	// decisions. Default time.Now. Frame timestamps are always supplied
	// by the caller — the store itself never stamps data, which is what
	// keeps a fixed-clock run byte-deterministic.
	Now func() time.Time
	// WrapWriter, when set, wraps the active segment file of each series
	// before the store's buffering layer — a fault-injection seam (e.g.
	// faults.FullWriter for disk-full chaos) that sees exactly the bytes
	// the store appends. It must not reorder or drop bytes on success;
	// Sync and Close still go to the underlying file directly.
	WrapWriter func(series string, w io.Writer) io.Writer
}

func (o *Options) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactEvery == 0 {
		o.CompactEvery = time.Minute
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
}

// Frame is one stored record: a wall-clock timestamp (unix nanoseconds),
// a key (stream id for event series; zero when unused), and an opaque
// payload. Query hands frames to its callback with Data aliasing a
// reused read buffer — copy it if it outlives the call.
type Frame struct {
	TS   int64
	Key  uint64
	Data []byte
}

// Segment file format constants. A segment is:
//
//	[8]  magic "blaptsdb"
//	[4]  u32 version (1)
//	[4]  u32 flags (bit 0: downsampled)
//	then frames until EOF, each:
//	[4]  u32 length of the framed body (ts + key + data), LE
//	[4]  u32 CRC-32C of the framed body, LE
//	[8]  i64 timestamp, unix nanoseconds, LE
//	[8]  u64 key, LE
//	[n]  payload
//
// Everything after a length/CRC mismatch is a torn tail; Open truncates
// it away, queries stop in front of it.
const (
	segMagic        = "blaptsdb"
	segVersion      = 1
	segHeaderSize   = 16
	frameHeaderSize = 8         // length + crc
	frameMetaSize   = 16        // ts + key
	maxFrameData    = 16 << 20  // corrupt-length guard
	flagDownsampled = uint32(1) // segment rewritten to coarser resolution
	segSuffix       = ".seg"
	segTempSuffix   = ".seg.tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var seriesNameRE = regexp.MustCompile(`^[a-zA-Z0-9_-]{1,64}$`)

// segment is the in-memory index entry for one segment file.
type segment struct {
	path        string
	seq         uint64
	size        int64 // valid bytes (header + intact frames)
	frames      int
	minTS       int64 // math.MaxInt64-ish sentinel not needed: frames==0 => unset
	maxTS       int64
	downsampled bool
}

// overlaps reports whether any frame in the segment can fall in
// [since, until].
func (g *segment) overlaps(since, until int64) bool {
	if g.frames == 0 {
		return false
	}
	return g.minTS <= until && g.maxTS >= since
}

// series is one series class: its sealed segment index and active
// (appendable) segment.
type series struct {
	mu      sync.Mutex
	name    string
	dir     string
	segs    []*segment // ascending seq; last may be the active one
	active  *segment   // nil until the first append after a seal
	f       *os.File
	bw      *bufio.Writer
	scratch []byte

	lastFlush time.Time
}

// Store is an open tsdb directory. Safe for concurrent use.
type Store struct {
	opts Options

	mu     sync.Mutex
	series map[string]*series

	compactStop chan struct{}
	compactDone chan struct{}
	closed      bool
}

// Open opens (creating if necessary) the store rooted at opts.Dir,
// recovering every series found on disk: each segment is scanned
// front-to-back and truncated at the first torn or corrupt frame, so a
// crash mid-append costs at most the unflushed tail of the active
// segment and never poisons reads.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("tsdb: Options.Dir is required")
	}
	opts.defaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	s := &Store{
		opts:   opts,
		series: make(map[string]*series),
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !seriesNameRE.MatchString(e.Name()) {
			continue
		}
		sr, err := s.openSeries(e.Name())
		if err != nil {
			return nil, err
		}
		s.series[e.Name()] = sr
	}
	if opts.CompactEvery > 0 && (opts.Retention > 0 || len(opts.Downsample) > 0) {
		s.compactStop = make(chan struct{})
		s.compactDone = make(chan struct{})
		go s.compactLoop()
	}
	return s, nil
}

// openSeries recovers one series directory: stale temp files from an
// interrupted downsample are removed, every segment is scanned and
// truncated to its last intact frame, and the highest-seq segment is
// kept open for append if it still has room.
func (s *Store) openSeries(name string) (*series, error) {
	dir := filepath.Join(s.opts.Dir, name)
	sr := &series{name: name, dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: series %s: %w", name, err)
	}
	for _, e := range entries {
		n := e.Name()
		if strings.HasSuffix(n, segTempSuffix) {
			// A downsample rewrite died before its rename; the original
			// segment is intact, the temp is garbage.
			_ = os.Remove(filepath.Join(dir, n))
			continue
		}
		if !strings.HasSuffix(n, segSuffix) {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(n, segSuffix), 10, 64)
		if err != nil {
			continue // not ours
		}
		g := &segment{path: filepath.Join(dir, n), seq: seq}
		if err := recoverSegment(g); err != nil {
			return nil, fmt.Errorf("tsdb: series %s: %w", name, err)
		}
		sr.segs = append(sr.segs, g)
	}
	sort.Slice(sr.segs, func(i, j int) bool { return sr.segs[i].seq < sr.segs[j].seq })
	// Reopen the newest segment for append when it has room and has not
	// been rewritten to a coarser resolution.
	if n := len(sr.segs); n > 0 {
		tail := sr.segs[n-1]
		if tail.size < s.opts.SegmentBytes && !tail.downsampled {
			f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("tsdb: series %s: %w", name, err)
			}
			sr.active = tail
			sr.f = f
			sr.bw = bufio.NewWriterSize(s.wrapWriter(name, f), 64<<10)
		}
	}
	return sr, nil
}

// recoverSegment scans one segment file, filling in the index entry and
// truncating the file at the first invalid frame. A file too short or
// mangled to hold even the header is truncated to empty (it will be
// rewritten if it ever becomes active again).
func recoverSegment(g *segment) error {
	f, err := os.OpenFile(g.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()

	valid, frames, minTS, maxTS, flags, err := scanSegment(f, nil)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			return fmt.Errorf("truncating torn tail of %s: %w", g.path, err)
		}
	}
	if valid == 0 {
		// The header itself was torn: nothing is recoverable, so rebuild
		// the segment as empty-but-valid so it can be appended to again.
		var hdr [segHeaderSize]byte
		copy(hdr[:8], segMagic)
		binary.LittleEndian.PutUint32(hdr[8:12], segVersion)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("rewriting torn header of %s: %w", g.path, err)
		}
		valid, flags = segHeaderSize, 0
	}
	g.size, g.frames, g.minTS, g.maxTS = valid, frames, minTS, maxTS
	g.downsampled = flags&flagDownsampled != 0
	return nil
}

// scanSegment reads a segment stream front to back, returning the byte
// offset of the last intact frame boundary, the frame count, the
// timestamp range, and the header flags. fn, when non-nil, observes
// every intact frame (Data aliases a reused buffer). A header that is
// short or wrong yields valid==0 (the whole file is a tear). Scanning
// never returns an error for torn or corrupt content — that is the
// recovery case — only for I/O failures other than EOF.
func scanSegment(r io.Reader, fn func(Frame) error) (valid int64, frames int, minTS, maxTS int64, flags uint32, err error) {
	br := bufio.NewReaderSize(r, 256<<10)
	var hdr [segHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, 0, 0, 0, nil // short header: empty/torn file
	}
	if string(hdr[:8]) != segMagic || binary.LittleEndian.Uint32(hdr[8:12]) != segVersion {
		return 0, 0, 0, 0, 0, nil // foreign or mangled header
	}
	flags = binary.LittleEndian.Uint32(hdr[12:16])
	valid = segHeaderSize

	var fh [frameHeaderSize]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, fh[:]); err != nil {
			return valid, frames, minTS, maxTS, flags, nil // clean EOF or torn header
		}
		length := binary.LittleEndian.Uint32(fh[0:4])
		crc := binary.LittleEndian.Uint32(fh[4:8])
		if length < frameMetaSize || length > frameMetaSize+maxFrameData {
			return valid, frames, minTS, maxTS, flags, nil // corrupt length
		}
		if cap(body) < int(length) {
			body = make([]byte, length)
		}
		body = body[:length]
		if _, err := io.ReadFull(br, body); err != nil {
			return valid, frames, minTS, maxTS, flags, nil // torn body
		}
		if crc32.Checksum(body, crcTable) != crc {
			return valid, frames, minTS, maxTS, flags, nil // corrupt body
		}
		ts := int64(binary.LittleEndian.Uint64(body[0:8]))
		key := binary.LittleEndian.Uint64(body[8:16])
		if frames == 0 || ts < minTS {
			minTS = ts
		}
		if frames == 0 || ts > maxTS {
			maxTS = ts
		}
		frames++
		valid += frameHeaderSize + int64(length)
		if fn != nil {
			if err := fn(Frame{TS: ts, Key: key, Data: body[frameMetaSize:]}); err != nil {
				return valid, frames, minTS, maxTS, flags, err
			}
		}
	}
}

// appendFrame encodes one frame into buf (reused across calls).
func appendFrame(buf []byte, ts int64, key uint64, data []byte) []byte {
	length := uint32(frameMetaSize + len(data))
	var meta [frameMetaSize]byte
	binary.LittleEndian.PutUint64(meta[0:8], uint64(ts))
	binary.LittleEndian.PutUint64(meta[8:16], key)
	crc := crc32.Checksum(meta[:], crcTable)
	crc = crc32.Update(crc, crcTable, data)
	var fh [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(fh[0:4], length)
	binary.LittleEndian.PutUint32(fh[4:8], crc)
	buf = append(buf, fh[:]...)
	buf = append(buf, meta[:]...)
	return append(buf, data...)
}

// getSeries returns (creating on demand) the named series.
// wrapWriter applies the Options.WrapWriter fault seam, if configured,
// to a series' active segment file.
func (s *Store) wrapWriter(name string, f io.Writer) io.Writer {
	if s.opts.WrapWriter == nil {
		return f
	}
	return s.opts.WrapWriter(name, f)
}

func (s *Store) getSeries(name string) (*series, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("tsdb: store closed")
	}
	if sr, ok := s.series[name]; ok {
		return sr, nil
	}
	if !seriesNameRE.MatchString(name) {
		return nil, fmt.Errorf("tsdb: bad series name %q", name)
	}
	dir := filepath.Join(s.opts.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	sr := &series{name: name, dir: dir}
	s.series[name] = sr
	return sr, nil
}

// Append durably appends one frame to the named series, creating the
// series on first use and rolling to a new segment once the active one
// reaches Options.SegmentBytes. Timestamps are caller-supplied and
// should be roughly ascending per series; the store indexes whatever it
// is given. Data is copied before Append returns.
func (s *Store) Append(seriesName string, ts int64, key uint64, data []byte) error {
	sr, err := s.getSeries(seriesName)
	if err != nil {
		return err
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.active == nil {
		if err := s.rollLocked(sr); err != nil {
			return err
		}
	}
	sr.scratch = appendFrame(sr.scratch[:0], ts, key, data)
	if _, err := sr.bw.Write(sr.scratch); err != nil {
		return fmt.Errorf("tsdb: append %s: %w", seriesName, err)
	}
	g := sr.active
	if g.frames == 0 || ts < g.minTS {
		g.minTS = ts
	}
	if g.frames == 0 || ts > g.maxTS {
		g.maxTS = ts
	}
	g.frames++
	g.size += int64(len(sr.scratch))
	if g.size >= s.opts.SegmentBytes {
		if err := s.sealLocked(sr); err != nil {
			return err
		}
	} else if s.opts.SyncEvery > 0 {
		if now := s.opts.Now(); now.Sub(sr.lastFlush) >= s.opts.SyncEvery {
			sr.lastFlush = now
			if err := sr.bw.Flush(); err != nil {
				return fmt.Errorf("tsdb: flush %s: %w", seriesName, err)
			}
		}
	}
	return nil
}

// rollLocked starts the next segment for sr (series lock held).
func (s *Store) rollLocked(sr *series) error {
	var seq uint64 = 1
	if n := len(sr.segs); n > 0 {
		seq = sr.segs[n-1].seq + 1
	}
	path := filepath.Join(sr.dir, fmt.Sprintf("%08d%s", seq, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: roll %s: %w", sr.name, err)
	}
	var hdr [segHeaderSize]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], segVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("tsdb: roll %s: %w", sr.name, err)
	}
	g := &segment{path: path, seq: seq, size: segHeaderSize}
	sr.segs = append(sr.segs, g)
	sr.active = g
	sr.f = f
	sr.bw = bufio.NewWriterSize(s.wrapWriter(sr.name, f), 64<<10)
	sr.lastFlush = s.opts.Now()
	return nil
}

// sealLocked flushes, syncs, and closes the active segment (series lock
// held). The next Append rolls a fresh one.
func (s *Store) sealLocked(sr *series) error {
	if sr.active == nil {
		return nil
	}
	if err := sr.bw.Flush(); err != nil {
		return fmt.Errorf("tsdb: seal %s: %w", sr.name, err)
	}
	if err := sr.f.Sync(); err != nil {
		return fmt.Errorf("tsdb: seal %s: %w", sr.name, err)
	}
	if err := sr.f.Close(); err != nil {
		return fmt.Errorf("tsdb: seal %s: %w", sr.name, err)
	}
	sr.active, sr.f, sr.bw = nil, nil, nil
	return nil
}

// Query streams every frame of the named series whose timestamp falls
// in [since, until] (unix nanoseconds, inclusive) to fn, in append
// order. key filters to one key when nonzero (KeyAny matches all).
// Frames are delivered with Data aliasing a reused buffer — copy what
// outlives the callback. Returning an error from fn stops the query and
// returns that error. Querying an unknown series returns no frames.
//
// Segments whose [minTS, maxTS] range misses the window are skipped
// without being opened — the time index that keeps a narrow window over
// a long history cheap. The append path is locked only long enough to
// flush buffered writes and snapshot the segment list; the file reads
// run unlocked, racing writers stop cleanly at the first incomplete
// frame.
func (s *Store) Query(seriesName string, since, until int64, key uint64, fn func(Frame) error) error {
	s.mu.Lock()
	sr, ok := s.series[seriesName]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	sr.mu.Lock()
	if sr.bw != nil {
		if err := sr.bw.Flush(); err != nil {
			sr.mu.Unlock()
			return fmt.Errorf("tsdb: query flush %s: %w", seriesName, err)
		}
	}
	segs := make([]*segment, 0, len(sr.segs))
	for _, g := range sr.segs {
		if g.overlaps(since, until) {
			segs = append(segs, g)
		}
	}
	sr.mu.Unlock()

	for _, g := range segs {
		f, err := os.Open(g.path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // compacted away between snapshot and read
			}
			return fmt.Errorf("tsdb: query %s: %w", seriesName, err)
		}
		_, _, _, _, _, err = scanSegment(f, func(fr Frame) error {
			if fr.TS < since || fr.TS > until {
				return nil
			}
			if key != KeyAny && fr.Key != key {
				return nil
			}
			return fn(fr)
		})
		f.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// KeyAny is the Query key wildcard: match frames under every key.
const KeyAny uint64 = 0

// SeriesStats summarizes one series for operators and tests.
type SeriesStats struct {
	Segments int   `json:"segments"`
	Frames   int   `json:"frames"`
	Bytes    int64 `json:"bytes"`
	MinTS    int64 `json:"min_ts,omitempty"`
	MaxTS    int64 `json:"max_ts,omitempty"`
}

// Stats returns per-series segment/frame/byte counts.
func (s *Store) Stats() map[string]SeriesStats {
	s.mu.Lock()
	names := make([]string, 0, len(s.series))
	srs := make([]*series, 0, len(s.series))
	for n, sr := range s.series {
		names = append(names, n)
		srs = append(srs, sr)
	}
	s.mu.Unlock()
	out := make(map[string]SeriesStats, len(names))
	for i, sr := range srs {
		sr.mu.Lock()
		var st SeriesStats
		for _, g := range sr.segs {
			st.Segments++
			st.Frames += g.frames
			st.Bytes += g.size
			if g.frames == 0 {
				continue
			}
			if st.MinTS == 0 || g.minTS < st.MinTS {
				st.MinTS = g.minTS
			}
			if g.maxTS > st.MaxTS {
				st.MaxTS = g.maxTS
			}
		}
		sr.mu.Unlock()
		out[names[i]] = st
	}
	return out
}

// Sync flushes and fsyncs every series' active segment — the explicit
// durability point for callers that need stronger guarantees than the
// SyncEvery flush cadence.
func (s *Store) Sync() error {
	s.mu.Lock()
	srs := make([]*series, 0, len(s.series))
	for _, sr := range s.series {
		srs = append(srs, sr)
	}
	s.mu.Unlock()
	for _, sr := range srs {
		sr.mu.Lock()
		var err error
		if sr.bw != nil {
			err = sr.bw.Flush()
		}
		if err == nil && sr.f != nil {
			err = sr.f.Sync()
		}
		sr.mu.Unlock()
		if err != nil {
			return fmt.Errorf("tsdb: sync %s: %w", sr.name, err)
		}
	}
	return nil
}

// SyncSeries flushes and fsyncs one series' active segment. Callers
// with a durability point on a single low-volume series (the sentinel's
// checkpoint series) use this instead of Sync so they do not pay for
// forcing the high-volume series' append backlog through the journal on
// every call. Syncing a series that does not exist yet is a no-op.
func (s *Store) SyncSeries(name string) error {
	s.mu.Lock()
	sr := s.series[name]
	s.mu.Unlock()
	if sr == nil {
		return nil
	}
	sr.mu.Lock()
	var err error
	if sr.bw != nil {
		err = sr.bw.Flush()
	}
	if err == nil && sr.f != nil {
		err = sr.f.Sync()
	}
	sr.mu.Unlock()
	if err != nil {
		return fmt.Errorf("tsdb: sync %s: %w", sr.name, err)
	}
	return nil
}

// Close stops the background compactor, flushes and syncs every active
// segment, and closes the store. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop, done := s.compactStop, s.compactDone
	srs := make([]*series, 0, len(s.series))
	for _, sr := range s.series {
		srs = append(srs, sr)
	}
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	var first error
	for _, sr := range srs {
		sr.mu.Lock()
		var err error
		if sr.bw != nil {
			err = sr.bw.Flush()
		}
		if err == nil && sr.f != nil {
			err = sr.f.Sync()
		}
		if sr.f != nil {
			if cerr := sr.f.Close(); err == nil {
				err = cerr
			}
			sr.active, sr.f, sr.bw = nil, nil, nil
		}
		sr.mu.Unlock()
		if err != nil && first == nil {
			first = fmt.Errorf("tsdb: close %s: %w", sr.name, err)
		}
	}
	return first
}

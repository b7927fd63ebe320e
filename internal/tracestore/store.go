// Package tracestore persists obs trace records in a crash-safe,
// append-only, segmented on-disk ring and serves indexed queries over it.
//
// A Store is an obs.Spill: it receives every record a Tracer exports,
// already encoded, and appends it to the active segment through a bounded
// queue drained by one writer goroutine — the decode hot path never waits
// on disk; when the queue is full the record is counted dropped instead.
// The writer batches records per wakeup and fsyncs once per batch, so a
// query only ever sees durable records. Full segments are sealed with a
// sparse-index sidecar and retention drops whole sealed segments oldest
// first. See DESIGN.md §13 for the on-disk format.
package tracestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"tnb/internal/obs"
)

// Options configures Open.
type Options struct {
	// Dir is the store directory, created if missing.
	Dir string
	// SegmentBytes is the roll threshold: the active segment is sealed
	// once it reaches this size. Default 4 MiB.
	SegmentBytes int64
	// MaxBytes caps the store's total size; when a seal pushes the sum
	// over, whole sealed segments are dropped oldest-first. Default 1 GiB:
	// a long-lived writer must never fill the disk.
	MaxBytes int64
	// QueueSize bounds the append queue between the hot path and the
	// writer goroutine. Appends beyond a full queue are dropped and
	// counted. Default 1024.
	QueueSize int
	// ReadOnly opens the store for query only: no writer is started, no
	// recovery truncation is performed, and Append drops everything. The
	// directory must exist. Used by `tnbtrace -store`.
	ReadOnly bool
	// Metrics receives the store's instruments; nil disables them.
	Metrics *Metrics
}

// maxBatch caps how many queued records one writer wakeup folds into a
// single write+fsync.
const maxBatch = 512

// job is one queue entry: an encoded record, or a flush barrier (nil line)
// whose done channel is closed once all earlier records are durable.
type job struct {
	line []byte // includes trailing newline; nil for a barrier
	m    obs.RecordMeta
	unix int64
	done chan struct{}
}

// Store is the persistent trace ring. All methods are safe for concurrent
// use, and all are nil-safe no-ops except Open's result is never nil on
// success.
type Store struct {
	opt Options

	jobs    chan job
	quit    chan struct{}
	done    chan struct{}
	closed  atomic.Bool
	failed  atomic.Bool
	dropped atomic.Uint64

	// mu guards the queryable state: the sealed-segment indexes
	// (immutable once listed) and the active segment's index, which
	// covers exactly the durable (fsynced) prefix of the active file.
	mu     sync.Mutex
	sealed []*segIndex
	active *segIndex
	err    error

	// Writer-goroutine state, unguarded.
	activeFile *os.File
	noSeal     bool // test hook: crash() skips the close-time seal
}

// Open opens or creates a store in o.Dir, recovering from any previous
// crash: segments without an index sidecar are rescanned from their bytes,
// a torn final line (a write cut short by the crash) is truncated away, and
// the rescanned segment is sealed. The next record sequence number resumes
// after the highest recovered one.
func Open(o Options) (*Store, error) {
	if o.Dir == "" {
		return nil, fmt.Errorf("tracestore: Dir is required")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxBytes <= 0 {
		o.MaxBytes = 1 << 30
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if !o.ReadOnly {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	bases, err := listSegments(o.Dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		opt:  o,
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	nextSeq := uint64(1)
	for _, base := range bases {
		path := filepath.Join(o.Dir, segName(base))
		ix, serr := readSidecar(o.Dir, base)
		if serr != nil {
			// No (or corrupt) sidecar: this was the active segment when
			// the process died. Rebuild its index from the bytes.
			var torn int64
			ix, torn, err = scanSegment(path, base, -1)
			if err != nil {
				return nil, fmt.Errorf("tracestore: recover %s: %w", segName(base), err)
			}
			if !o.ReadOnly {
				if ix.N == 0 {
					os.Remove(path)
					continue
				}
				if torn >= 0 {
					if err := os.Truncate(path, torn); err != nil {
						return nil, fmt.Errorf("tracestore: truncate torn tail of %s: %w", segName(base), err)
					}
				}
				if err := ix.writeSidecar(o.Dir); err != nil {
					return nil, err
				}
			} else if ix.N == 0 {
				continue
			}
		}
		s.sealed = append(s.sealed, ix)
		if end := ix.Base + uint64(ix.N); end > nextSeq {
			nextSeq = end
		}
	}
	if o.ReadOnly {
		s.closed.Store(true)
		close(s.done)
		s.publishDisk()
		return s, nil
	}
	if err := s.openActive(nextSeq); err != nil {
		return nil, err
	}
	s.jobs = make(chan job, o.QueueSize)
	s.publishDisk()
	go s.run()
	return s, nil
}

// Append enqueues one encoded record for durable storage. It never blocks:
// when the queue is full, or the store is closed or has failed, the record
// is dropped and counted. Append implements obs.Spill and copies the line
// before returning, as that contract requires.
func (s *Store) Append(line []byte, m obs.RecordMeta) {
	if s == nil {
		return
	}
	if s.closed.Load() || s.failed.Load() {
		s.drop(1)
		return
	}
	cp := make([]byte, len(line)+1)
	copy(cp, line)
	cp[len(line)] = '\n'
	select {
	case s.jobs <- job{line: cp, m: m, unix: time.Now().Unix()}:
	default:
		s.drop(1)
	}
}

// Dropped returns how many records were discarded because of a full queue,
// a failed writer, or appends after Close.
func (s *Store) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Err returns the first writer error (disk full, permission lost). A store
// with a non-nil Err drops all further appends but still serves queries
// over what was durably written.
func (s *Store) Err() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Flush blocks until every record enqueued before the call is durable (or
// dropped). Unlike Append it may wait on disk; it is meant for tests and
// orderly handoffs, not the hot path.
func (s *Store) Flush() {
	if s == nil || s.closed.Load() {
		return
	}
	done := make(chan struct{})
	select {
	case s.jobs <- job{done: done}:
	case <-s.quit:
		return
	}
	select {
	case <-done:
	case <-s.done:
	}
}

// Close drains the queue, seals the active segment, and stops the writer.
// Appends racing Close may be dropped and counted.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	if s.closed.Swap(true) {
		<-s.done
		return s.Err()
	}
	close(s.quit)
	<-s.done
	return s.Err()
}

// drop counts n discarded records.
func (s *Store) drop(n int) {
	s.dropped.Add(uint64(n))
	for i := 0; i < n; i++ {
		s.opt.Metrics.onDropped()
	}
}

// openActive creates a fresh active segment whose first record will have
// sequence number base.
func (s *Store) openActive(base uint64) error {
	f, err := os.OpenFile(filepath.Join(s.opt.Dir, segName(base)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(s.opt.Dir); err != nil {
		f.Close()
		return err
	}
	s.activeFile = f
	s.mu.Lock()
	s.active = &segIndex{Base: base}
	s.mu.Unlock()
	return nil
}

// run is the writer goroutine: batch, write, fsync, publish.
func (s *Store) run() {
	defer close(s.done)
	batch := make([]job, 0, maxBatch)
	for {
		select {
		case j := <-s.jobs:
			batch = append(batch[:0], j)
		fill:
			for len(batch) < maxBatch {
				select {
				case j := <-s.jobs:
					batch = append(batch, j)
				default:
					break fill
				}
			}
			s.writeBatch(batch)
		case <-s.quit:
			batch = batch[:0]
			for {
				select {
				case j := <-s.jobs:
					batch = append(batch, j)
				default:
					s.writeBatch(batch)
					if !s.noSeal {
						s.sealActive(false)
					} else {
						s.activeFile.Close()
					}
					return
				}
			}
		}
	}
}

// writeBatch persists one batch with a single write and fsync, publishes
// the new durable state to queries, then releases any flush barriers.
// Failures fail the whole store: the batch is counted dropped and every
// later append drops too, but sealed data stays queryable.
func (s *Store) writeBatch(batch []job) {
	var buf bytes.Buffer
	n := 0
	for _, j := range batch {
		if j.line != nil {
			buf.Write(j.line)
			n++
		}
	}
	if n > 0 && !s.failed.Load() {
		start := time.Now()
		_, err := s.activeFile.Write(buf.Bytes())
		if err == nil {
			err = s.activeFile.Sync()
		}
		if err != nil {
			s.fail(err)
			s.drop(n)
		} else {
			s.opt.Metrics.observeFlush(time.Since(start).Seconds())
			s.mu.Lock()
			for _, j := range batch {
				if j.line != nil {
					s.active.addRecord(j.m, j.unix, len(j.line))
				}
			}
			s.mu.Unlock()
			s.opt.Metrics.onAppended(n)
			s.publishDisk()
		}
	}
	for _, j := range batch {
		if j.done != nil {
			close(j.done)
		}
	}
	if !s.failed.Load() && s.activeBytes() >= s.opt.SegmentBytes {
		s.roll()
	}
}

func (s *Store) activeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return 0
	}
	return s.active.Bytes
}

// sealActive writes the active segment's index sidecar and closes its
// file; empty active segments are removed instead. With reopen, a fresh
// active segment is started right after.
func (s *Store) sealActive(reopen bool) {
	s.mu.Lock()
	ix := s.active
	s.mu.Unlock()
	f := s.activeFile
	s.activeFile = nil
	if f != nil {
		f.Close()
	}
	if ix == nil {
		return
	}
	if ix.N == 0 {
		os.Remove(filepath.Join(s.opt.Dir, segName(ix.Base)))
		s.mu.Lock()
		s.active = nil
		s.mu.Unlock()
	} else {
		if err := ix.writeSidecar(s.opt.Dir); err != nil {
			s.fail(err)
			return
		}
		if err := syncDir(s.opt.Dir); err != nil {
			s.fail(err)
			return
		}
		s.mu.Lock()
		s.sealed = append(s.sealed, ix)
		s.active = nil
		s.mu.Unlock()
	}
	if reopen {
		if err := s.openActive(ix.Base + uint64(ix.N)); err != nil {
			s.fail(err)
		}
	}
}

// roll seals the full active segment, starts the next one, and applies
// retention.
func (s *Store) roll() {
	s.sealActive(true)
	s.retain()
	s.publishDisk()
}

// retain drops whole sealed segments oldest-first while the store exceeds
// its size budget. Only ever called from the writer goroutine, at
// seal time — retention latency is bounded by the segment size.
func (s *Store) retain() {
	for {
		s.mu.Lock()
		if len(s.sealed) == 0 {
			s.mu.Unlock()
			return
		}
		oldest := s.sealed[0]
		var total int64
		for _, ix := range s.sealed {
			total += ix.Bytes
		}
		if s.active != nil {
			total += s.active.Bytes
		}
		s.mu.Unlock()

		if total <= s.opt.MaxBytes {
			return
		}
		os.Remove(filepath.Join(s.opt.Dir, segName(oldest.Base)))
		os.Remove(filepath.Join(s.opt.Dir, idxName(oldest.Base)))
		s.mu.Lock()
		s.sealed = s.sealed[1:]
		s.mu.Unlock()
	}
}

// fail poisons the store after an unrecoverable writer error.
func (s *Store) fail(err error) {
	s.failed.Store(true)
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// publishDisk refreshes the segment-count and bytes-on-disk gauges.
func (s *Store) publishDisk() {
	if s.opt.Metrics == nil {
		return
	}
	s.mu.Lock()
	n := len(s.sealed)
	var total int64
	for _, ix := range s.sealed {
		total += ix.Bytes
	}
	if s.active != nil {
		n++
		total += s.active.Bytes
	}
	s.mu.Unlock()
	s.opt.Metrics.setDisk(n, total)
}

// syncDir fsyncs a directory so entry creations and renames survive a
// crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Package dataflow is the distributed-processing substrate of this
// repository: an in-process, multi-partition, parallel pipelined dataflow
// engine that plays the role Apache Spark plays in the paper.
//
// A Dataset is a collection of rows split into partitions. Narrow operators
// (Map, Filter, FlatMap, AddUniqueID) do not materialize their output:
// consecutive narrow operators are fused into a single per-row pass that runs
// when a wide operator (shuffle, join, group) or an action (Collect, Count)
// consumes the dataset. Partitions are processed goroutine-per-partition on a
// bounded worker pool shared by the whole Context, so no matter how many
// partitions a stage has, at most Workers tasks (counting the submitting
// goroutine, which runs overflow tasks inline) compute at once.
//
// Key-based repartitioning is an explicit shuffle: map-side tasks stream rows
// through the fused operator chain directly into per-(source,target) buffers,
// and reduce-side tasks concatenate their buffers in parallel. The engine
// meters every row that crosses the shuffle boundary (bytes and records),
// records per-stage wall time, tracks peak partition sizes, and enforces an
// optional per-partition memory cap that emulates the executor out-of-memory
// failures reported as "F = FAIL" in the paper's figures. Datasets carry
// partitioning guarantees so that co-partitioned inputs skip shuffles,
// exactly as Spark's partitioner-aware planning does (paper Section 3,
// "Operators effect the partitioning guarantee").
package dataflow

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trance-go/trance/internal/value"
)

// Row is a flat engine tuple. Columns may hold nested bags: the standard
// compilation route carries inner collections through the pipeline the same
// way Spark Datasets do.
type Row = value.Tuple

// ErrMemoryExceeded reports that some partition outgrew the configured
// per-partition memory cap — the simulator's equivalent of a Spark executor
// crashing with memory saturation.
var ErrMemoryExceeded = errors.New("dataflow: partition memory cap exceeded (worker crash)")

// Context configures and instruments an engine run.
type Context struct {
	// Parallelism is the number of partitions used by shuffles. It plays the
	// role of the paper's "1000 partitions used for shuffling data".
	Parallelism int
	// Workers bounds the number of partition tasks executing at any moment
	// (the cluster's core count); the submitting goroutine counts as one
	// worker and runs overflow tasks inline, so Workers=1 executes every
	// task sequentially on the caller. 0 means runtime.NumCPU(). The pool
	// size is latched on the context's first operation; set Workers before
	// running anything — later changes are ignored.
	Workers int
	// MaxPartitionBytes caps the estimated size of any single materialized
	// partition; 0 disables the cap. Exceeding it fails the job with
	// ErrMemoryExceeded.
	MaxPartitionBytes int64
	// BroadcastLimit is the maximum estimated size of a dataset the engine
	// will broadcast instead of shuffling (the paper defers to Spark's 10MB
	// auto-broadcast threshold).
	BroadcastLimit int64
	// SampleSeed seeds the deterministic per-partition sampling used by the
	// skew detector.
	SampleSeed int64
	// DisableGuarantees makes every RepartitionBy shuffle even when the
	// partitioning guarantee already holds. The SparkSQL-style baseline uses
	// it to model plans that keep operators with their source relations and
	// re-exchange data at every key-based step.
	DisableGuarantees bool

	// SharedPool, when non-nil, replaces the context's private worker pool so
	// several concurrent jobs (each with its own Context) draw helper
	// goroutines from one bounded budget — the serving layer's "many requests,
	// one cluster" model. Workers is ignored when SharedPool is set. Set it
	// before running anything on the context.
	SharedPool *Pool

	Metrics Metrics

	poolOnce sync.Once
	pool     chan struct{}
}

// Pool is a bounded worker pool that can be shared by any number of Contexts.
// Each job's submitting goroutine counts as one worker and runs overflow
// tasks inline (exactly as with a private pool), so a pool of size w bounds
// the EXTRA helper goroutines across all sharing jobs to w-1; total
// computing tasks are at most (concurrent jobs) + w - 1. A zero or negative
// size means runtime.NumCPU().
type Pool struct {
	size  int
	once  sync.Once
	slots chan struct{}
}

// NewPool creates a pool bounding helper goroutines to workers-1 (0 =
// NumCPU).
func NewPool(workers int) *Pool { return &Pool{size: workers} }

// Workers reports the pool's configured worker count after defaulting.
func (p *Pool) Workers() int {
	w := p.size
	if w <= 0 {
		w = runtime.NumCPU()
	}
	return w
}

func (p *Pool) semaphore() chan struct{} {
	p.once.Do(func() { p.slots = make(chan struct{}, p.Workers()-1) })
	return p.slots
}

// NewContext returns a context with the given parallelism, a NumCPU-sized
// worker pool, and no memory cap.
func NewContext(parallelism int) *Context {
	if parallelism <= 0 {
		parallelism = 1
	}
	return &Context{Parallelism: parallelism, BroadcastLimit: 10 << 20, SampleSeed: 42}
}

// slots returns the shared bounded worker pool, initializing it on first use.
// The caller of runParts counts as one worker (it runs overflow tasks
// inline), so the pool holds Workers-1 goroutine slots; with Workers=1 the
// pool is empty and every task runs sequentially on the caller.
func (c *Context) slots() chan struct{} {
	if c.SharedPool != nil {
		return c.SharedPool.semaphore()
	}
	c.poolOnce.Do(func() {
		w := c.Workers
		if w <= 0 {
			w = runtime.NumCPU()
		}
		c.pool = make(chan struct{}, w-1)
	})
	return c.pool
}

// StageTime is the measured wall time of one named engine stage.
type StageTime struct {
	Stage string
	Wall  time.Duration
}

// Metrics accumulates engine counters for one run. The atomic fields are
// updated lock-free from partition tasks; stage wall times are recorded under
// a mutex by the driver-side operator code. Read everything after the job
// completes (or via Snapshot at any point).
type Metrics struct {
	ShuffleBytes      atomic.Int64 // bytes of rows written across a shuffle boundary
	ShuffleRecords    atomic.Int64 // rows written across a shuffle boundary
	BroadcastBytes    atomic.Int64 // bytes replicated to every partition by broadcasts
	PeakPartition     atomic.Int64 // largest materialized partition observed (bytes)
	PeakPartitionRows atomic.Int64 // largest materialized partition observed (rows)
	Stages            atomic.Int64 // shuffle stages executed
	SkippedShuffles   atomic.Int64 // shuffles avoided thanks to partitioning guarantees

	mu        sync.Mutex
	stageWall map[string]time.Duration
	stageSeen []string // first-seen order, for stable reporting
	exchange  ExchangeStat
	stageExch map[string]ExchangeStat
	exchSeen  []string // first-seen order, for stable reporting
}

// ExchangeStat describes how the (source,target) buffers of shuffles were
// metered: "columnar" buffers at the size of their compact typed wire
// encoding (wireSize — every source of uniform-width rows), "boxed" buffers
// by value.SizeRows (ragged-width sources). The rows themselves cross the
// in-process exchange as handles either way.
type ExchangeStat struct {
	ColumnarBuffers int64
	BoxedBuffers    int64
	ColumnarBytes   int64
	BoxedBytes      int64
}

// add accumulates o into e.
func (e *ExchangeStat) add(o ExchangeStat) {
	e.ColumnarBuffers += o.ColumnarBuffers
	e.BoxedBuffers += o.BoxedBuffers
	e.ColumnarBytes += o.ColumnarBytes
	e.BoxedBytes += o.BoxedBytes
}

// StageExchange is the exchange accounting of one named shuffle stage.
type StageExchange struct {
	Stage string
	ExchangeStat
}

// addExchange accumulates one map task's exchange accounting under a stage
// name and into the run totals.
func (m *Metrics) addExchange(stage string, e ExchangeStat) {
	if e == (ExchangeStat{}) {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.exchange.add(e)
	if m.stageExch == nil {
		m.stageExch = map[string]ExchangeStat{}
	}
	if _, ok := m.stageExch[stage]; !ok {
		m.exchSeen = append(m.exchSeen, stage)
	}
	cur := m.stageExch[stage]
	cur.add(e)
	m.stageExch[stage] = cur
}

// AddStageWall accumulates wall time under a stage name.
func (m *Metrics) AddStageWall(stage string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stageWall == nil {
		m.stageWall = map[string]time.Duration{}
	}
	if _, ok := m.stageWall[stage]; !ok {
		m.stageSeen = append(m.stageSeen, stage)
	}
	m.stageWall[stage] += d
}

// Snapshot is a plain-struct copy of Metrics, convenient for reporting.
type Snapshot struct {
	ShuffleBytes      int64
	ShuffleRecords    int64
	BroadcastBytes    int64
	PeakPartition     int64
	PeakPartitionRows int64
	Stages            int64
	SkippedShuffles   int64
	// VectorizedRows is always zero; bench/inproc.go is its last reader.
	VectorizedRows int64
	// Exchange totals how shuffle buffers crossed the boundary.
	Exchange ExchangeStat
	// StageWall lists per-stage wall times in first-execution order.
	StageWall []StageTime
	// StageExchange lists per-stage exchange accounting in first-execution
	// order (shuffle stages only).
	StageExchange []StageExchange
}

// Snapshot copies the current counter values.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		ShuffleBytes:      m.ShuffleBytes.Load(),
		ShuffleRecords:    m.ShuffleRecords.Load(),
		BroadcastBytes:    m.BroadcastBytes.Load(),
		PeakPartition:     m.PeakPartition.Load(),
		PeakPartitionRows: m.PeakPartitionRows.Load(),
		Stages:            m.Stages.Load(),
		SkippedShuffles:   m.SkippedShuffles.Load(),
	}
	m.mu.Lock()
	for _, name := range m.stageSeen {
		s.StageWall = append(s.StageWall, StageTime{Stage: name, Wall: m.stageWall[name]})
	}
	s.Exchange = m.exchange
	for _, name := range m.exchSeen {
		s.StageExchange = append(s.StageExchange, StageExchange{Stage: name, ExchangeStat: m.stageExch[name]})
	}
	m.mu.Unlock()
	return s
}

func (s Snapshot) String() string {
	return fmt.Sprintf("shuffle=%dB/%drec broadcast=%dB peakPart=%dB/%drows stages=%d skipped=%d exchange=%dcol/%dboxed",
		s.ShuffleBytes, s.ShuffleRecords, s.BroadcastBytes, s.PeakPartition, s.PeakPartitionRows,
		s.Stages, s.SkippedShuffles,
		s.Exchange.ColumnarBuffers, s.Exchange.BoxedBuffers)
}

// runParts invokes fn for every partition index and returns the joined
// errors. Execution is work-stealing over the context's bounded worker pool:
// helper goroutines (as many as free pool slots allow, at most Workers-1)
// and the caller itself all pull the next unclaimed index from a shared
// counter, so a long-running partition never stalls dispatch of the ones
// behind it. At most Workers tasks compute at once — the caller counts as
// one worker, so Workers=1 runs every task sequentially on the caller — and
// scheduling can never deadlock.
func (c *Context) runParts(n int, fn func(i int) error) error {
	if n == 0 {
		return nil
	}
	if n == 1 {
		return runTask(fn, 0)
	}
	errs := make([]error, n)
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			errs[i] = runTask(fn, i)
		}
	}
	sem := c.slots()
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				work()
			}()
			continue
		default:
		}
		break
	}
	work()
	wg.Wait()
	return errors.Join(errs...)
}

// runTask runs one partition task, converting a panic into an error. Tasks
// run on pool goroutines where a panic would kill the whole process — no
// caller-side recover can reach them — so this boundary is what lets a
// malformed query or corrupt row degrade to a failed job instead of a crash.
func runTask(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dataflow: partition %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// timeStage measures fn's wall time under the stage name.
func (c *Context) timeStage(stage string, fn func() error) error {
	start := time.Now()
	err := fn()
	c.Metrics.AddStageWall(stage, time.Since(start))
	return err
}

// checkPartitions sizes every partition with a row walk, then records the
// peaks and enforces the memory cap.
func (c *Context) checkPartitions(stage string, parts [][]Row) error {
	mem := make([]int64, len(parts))
	_ = c.runParts(len(parts), func(i int) error {
		mem[i] = value.SizeRows(parts[i])
		return nil
	})
	return c.checkSizes(stage, parts, mem)
}

// checkSizes records peak partition sizes and enforces the memory cap, given
// value.SizeRows of every partition in mem.
func (c *Context) checkSizes(stage string, parts [][]Row, mem []int64) error {
	failed := false
	for i, sz := range mem {
		maxInt64(&c.Metrics.PeakPartition, sz)
		maxInt64(&c.Metrics.PeakPartitionRows, int64(len(parts[i])))
		if c.MaxPartitionBytes > 0 && sz > c.MaxPartitionBytes {
			failed = true
		}
	}
	if failed {
		return fmt.Errorf("stage %s: %w", stage, ErrMemoryExceeded)
	}
	return nil
}

// maxInt64 raises an atomic counter to v if v is larger.
func maxInt64(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Package dataflow is the distributed-processing substrate of this
// repository: an in-process, multi-partition, parallel pipelined dataflow
// engine that plays the role Apache Spark plays in the paper.
//
// A Dataset is a collection of rows split into partitions. Narrow operators
// (Map, Filter, FlatMap, AddUniqueID) do not materialize their output:
// consecutive narrow operators are fused into a single per-row pass that runs
// when a wide operator (shuffle, join, group) or an action (Collect, Count)
// consumes the dataset. Partitions are processed goroutine-per-partition on a
// bounded worker pool (the Context's Pool), so no matter how many partitions a
// stage has, at most the pool's Workers() tasks (counting the submitting
// goroutine, which runs overflow tasks inline) compute at once.
//
// Key-based repartitioning is an explicit shuffle: map-side tasks stream rows
// through the fused operator chain directly into per-(source,target) buffers,
// and reduce-side tasks concatenate their buffers in parallel. The engine
// meters every row that crosses the shuffle boundary (bytes and records),
// records each stage's wall time and shuffled bytes, tracks peak partition
// sizes, and enforces an optional per-partition memory cap that emulates the
// executor out-of-memory failures reported as "F = FAIL" in the paper's
// figures. Which exchanges a query may skip is decided when it is planned
// (plan.Place, paper Section 3, "Operators effect the partitioning
// guarantee"): a Dataset records no placement, and the operators that
// exchange take the plan's decision as an argument.
package dataflow

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
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
	// MaxPartitionBytes caps the estimated size of any single materialized
	// partition; 0 disables the cap. Exceeding it fails the job with
	// ErrMemoryExceeded.
	MaxPartitionBytes int64
	// BroadcastLimit is the maximum estimated size of a dataset the engine
	// will broadcast instead of shuffling (the paper defers to Spark's 10MB
	// auto-broadcast threshold).
	BroadcastLimit int64
	// Pool bounds the partition tasks executing at any moment (the cluster's
	// core count). Several concurrent jobs, each with its own Context, may
	// draw from one pool — the serving layer's "many requests, one cluster"
	// model. Nil draws from a process-wide pool sized to runtime.NumCPU().
	Pool *Pool

	Metrics Metrics
}

// sampleSeed seeds the deterministic per-partition sampling used by the skew
// detector.
const sampleSeed = 42

// defaultPool serves every Context that names no Pool.
var defaultPool = NewPool(0)

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

// NewContext returns a context with the given parallelism, the default
// worker pool, and no memory cap.
func NewContext(parallelism int) *Context {
	if parallelism <= 0 {
		parallelism = 1
	}
	return &Context{Parallelism: parallelism, BroadcastLimit: 10 << 20}
}

// slots returns the semaphore of the context's worker pool. The caller of
// runParts counts as one worker (it runs overflow tasks inline), so the pool
// holds Workers()-1 goroutine slots; with one worker the pool is empty and
// every task runs sequentially on the caller.
func (c *Context) slots() chan struct{} {
	if c.Pool != nil {
		return c.Pool.semaphore()
	}
	return defaultPool.semaphore()
}

// StageTime is what one named engine stage recorded: its wall time and, for
// a shuffle stage, the bytes its exchange moved (their sum over the stages of
// a run is Snapshot.ShuffleBytes).
type StageTime struct {
	Stage        string
	Wall         time.Duration
	ShuffleBytes int64
}

// Metrics accumulates engine counters for one run. The atomic fields are
// updated lock-free from partition tasks; each stage is recorded under a
// mutex by the driver-side operator code when it ends. Read everything after
// the job completes (or via Snapshot at any point).
type Metrics struct {
	ShuffleBytes      atomic.Int64 // bytes of rows written across a shuffle boundary
	ShuffleRecords    atomic.Int64 // rows written across a shuffle boundary
	BroadcastBytes    atomic.Int64 // bytes replicated to every partition by broadcasts
	PeakPartition     atomic.Int64 // largest exchanged partition (bytes); under a memory cap, largest materialized one
	PeakPartitionRows atomic.Int64 // largest materialized partition observed (rows)
	Stages            atomic.Int64 // shuffle stages executed
	SkippedShuffles   atomic.Int64 // exchanges the plan decided the rows needed none of

	mu      sync.Mutex
	stages  []StageTime    // first-seen order, for stable reporting
	stageAt map[string]int // stage name → index in stages
}

// addStage accumulates wall time and shuffled bytes under a stage name.
func (m *Metrics) addStage(stage string, wall time.Duration, shuffled int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.stageAt[stage]
	if !ok {
		if m.stageAt == nil {
			m.stageAt = map[string]int{}
		}
		i = len(m.stages)
		m.stageAt[stage] = i
		m.stages = append(m.stages, StageTime{Stage: stage})
	}
	m.stages[i].Wall += wall
	m.stages[i].ShuffleBytes += shuffled
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
	// StageWall lists per-stage records in first-execution order.
	StageWall []StageTime
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
	s.StageWall = slices.Clone(m.stages)
	m.mu.Unlock()
	return s
}

func (s Snapshot) String() string {
	return fmt.Sprintf("shuffle=%dB/%drec broadcast=%dB peakPart=%dB/%drows stages=%d skipped=%d",
		s.ShuffleBytes, s.ShuffleRecords, s.BroadcastBytes, s.PeakPartition, s.PeakPartitionRows,
		s.Stages, s.SkippedShuffles)
}

// runParts invokes fn for every partition index and returns the joined
// errors. Execution is work-stealing over the context's bounded worker pool:
// helper goroutines (as many as free pool slots allow, at most the pool's
// Workers()-1) and the caller itself all pull the next unclaimed index from a
// shared counter, so a long-running partition never stalls dispatch of the
// ones behind it. At most Workers() tasks compute at once — the caller counts
// as one worker, so a one-worker pool runs every task sequentially on the
// caller — and scheduling can never deadlock.
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
	c.Metrics.addStage(stage, time.Since(start), 0)
	return err
}

// checkPartitions records the peak partition rows and, under a memory cap,
// sizes every partition with a row walk, records the peak bytes and enforces
// the cap. Without a cap nothing reads the sizes, so no row is walked.
func (c *Context) checkPartitions(stage string, parts [][]Row) error {
	if c.MaxPartitionBytes <= 0 {
		for _, p := range parts {
			maxInt64(&c.Metrics.PeakPartitionRows, int64(len(p)))
		}
		return nil
	}
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

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference kernel. On the shared two-vCPU boxes this benchmark runs on,
// the server's speed follows how hard neighbouring tenants press on the
// memory system: over minutes, identical requests ran up to 1.6× apart in
// wall time and in CPU time alike, while an arithmetic loop barely moved.
// The kernel has two phases, each on as many threads as the server has
// workers: one bound by memory latency and bandwidth (a pointer chase
// through a buffer larger than the last-level cache, then streaming
// read-modify-write passes), one bound by the Go allocator and garbage
// collector (rows of boxed values counted into a map and dropped). Alone,
// the first over-corrected the server's timings and the second
// under-corrected them; their sum took the run-to-run spread of identical
// code from 5.7 % to 3.5 % (mean over the twelve workload × timing pairs)
// and far more when the host drifted. The kernel runs in a child process of
// its own, so that the harness's heap does not set the collector's pace.
const (
	calibWords  = 4 << 20 // 32 MiB per buffer, two buffers per thread
	calibSteps  = 200_000 // dependent loads per sample
	calibPasses = 5       // streaming passes per sample
	calibRows   = 250_000 // boxed rows per thread per sample
	// calibRefMs is the kernel's usual time on the reference box (2 vCPU
	// Xeon 2.1 GHz): between the lower quartile and the median of 1200
	// samples taken over fifteen minutes.
	calibRefMs = 110.0
	// calibSensitivity is how much of the kernel's slowdown the server shares:
	// a host on which the kernel takes k times calibRefMs is taken to run the
	// server k^calibSensitivity times slower. Fitted on two sets of ten runs
	// per workload taken with the exponent at 1 (results/BENCH_13_exponent1.json;
	// README, "End-to-end metrics"): the
	// exponent that best explained the as-measured timings lay between 0.69
	// and 0.90 on all twelve workload × timing pairs, mean 0.81. Every run
	// reports its timings as measured too (host.raw_*), so the fit can be
	// redone from any record under results/.
	calibSensitivity = 0.8
)

// calibrator holds the memory kernel's buffers, one pair per thread. shrink
// divides every size of the kernel: 1 for a measured run, more for the
// smoke test, whose readings nobody reads.
type calibrator struct {
	chase  [][]uint32
	stream [][]uint64
	shrink int
	sink   uint64
}

func newCalibrator(shrink int) *calibrator {
	n := runtime.NumCPU()
	c := &calibrator{chase: make([][]uint32, n), stream: make([][]uint64, n), shrink: shrink}
	for t := range c.chase {
		// Sattolo's shuffle makes the buffer one cycle, so a walk never
		// settles into a short cached loop.
		a := make([]uint32, 2*calibWords/shrink)
		for i := range a {
			a[i] = uint32(i)
		}
		x := uint64(88172645463325252 + t)
		for i := len(a) - 1; i > 0; i-- {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := int(x % uint64(i))
			a[i], a[j] = a[j], a[i]
		}
		c.chase[t] = a
		c.stream[t] = make([]uint64, calibWords/shrink)
	}
	return c
}

// onThreads runs f on every thread at once and returns the wall time in
// milliseconds.
func (c *calibrator) onThreads(f func(t int) uint64) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, len(c.chase))
	for t := range c.chase {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sums[t] = f(t)
		}(t)
	}
	wg.Wait()
	for _, s := range sums {
		c.sink ^= s
	}
	return ms(time.Since(start))
}

// memory is the latency-and-bandwidth kernel.
func (c *calibrator) memory() float64 {
	return c.onThreads(func(t int) uint64 {
		a, p := c.chase[t], uint32(0)
		for i := 0; i < calibSteps/c.shrink; i++ {
			p = a[p]
		}
		b, s := c.stream[t], uint64(p)
		for r := 0; r < calibPasses; r++ {
			for i := range b {
				s += b[i]
				b[i] = s
			}
		}
		return s
	})
}

// allocate is the allocator-and-collector kernel: rows of boxed values, as
// the engine moves them, grouped by a string key and dropped.
func (c *calibrator) allocate() float64 {
	return c.onThreads(func(t int) uint64 {
		// A bounded window of live rows and a steady stream of garbage: the
		// collector runs many cycles per sample, so a sample does not hinge
		// on whether one more cycle fell inside it.
		var live [4096][]any
		groups := map[string]int{}
		for i := 0; i < calibRows/c.shrink; i++ {
			key := strconv.Itoa((i*7919 + t) % 20011)
			live[i%len(live)] = []any{int64(i), key, float64(i) / 3}
			groups[key]++
		}
		return uint64(len(groups)) + uint64(len(live[0]))
	})
}

// hostProbeEnv marks the child process that runs the kernel and carries the
// kernel's shrink factor. The child is this same executable (the harness, or
// the test binary), so it is told apart by its environment and never
// reaches main.
const hostProbeEnv = "TRANCE_BENCH_HOSTPROBE"

func init() {
	if v := os.Getenv(hostProbeEnv); v != "" {
		shrink, err := strconv.Atoi(v)
		if err != nil || shrink < 1 {
			fmt.Fprintf(os.Stderr, "%s=%q: want a positive integer\n", hostProbeEnv, v)
			os.Exit(2)
		}
		hostProbeLoop(shrink)
		os.Exit(0)
	}
}

// hostProbeLoop is the child process: for every byte on standard input it
// runs the kernel once and prints its time in milliseconds.
func hostProbeLoop(shrink int) {
	c := newCalibrator(shrink)
	c.memory() // the first pass pays the stream buffers' page faults
	in := bufio.NewReader(os.Stdin)
	for {
		if _, err := in.ReadByte(); err != nil {
			return // the harness closed the pipe, or died
		}
		fmt.Printf("%.6f\n", c.memory()+c.allocate())
	}
}

// hostProbe is the harness's handle on the child.
type hostProbe struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startHostProbe(shrink int) (*hostProbe, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", hostProbeEnv, shrink))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &hostProbe{cmd: cmd, in: in, out: bufio.NewReader(out)}, nil
}

// sample runs the kernel once and returns its wall time in milliseconds. It
// does the same work on every call, so a change from one reading to the next
// is drift of the host, not of the program under test.
func (p *hostProbe) sample() (float64, error) {
	if _, err := p.in.Write([]byte{'\n'}); err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return 0, fmt.Errorf("host probe: %w", err)
	}
	return v, nil
}

// stop ends the child and waits for it.
func (p *hostProbe) stop() {
	p.in.Close()
	_ = p.cmd.Wait() // it exits on end of input; nothing to do about a failure here
}

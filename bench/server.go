package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildTranced compiles cmd/tranced from the repository at root into the
// build directory and returns the binary's path and how long the build took.
func buildTranced(root, buildDir string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir, "tranced")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/tranced")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/tranced: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// server is one tranced child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error
	once sync.Once
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches tranced; the process is running but not yet listening
// when it returns. Its log goes to logPath.
func startServer(bin string, args []string, logPath string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// waitHealthy polls /healthz until it answers 200, the process dies, or the
// timeout passes.
func (s *server) waitHealthy(hc *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("tranced exited before it was healthy: %v", err)
		default:
		}
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // body content is irrelevant here
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("tranced not healthy after %v", timeout)
}

// stop terminates the process and waits until it has ended. Later calls do
// nothing.
func (s *server) stop() {
	s.once.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine: we wait below
		select {
		case <-s.done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.done
		}
		s.log.Close()
	})
}

// clockTick is the kernel's USER_HZ, in which /proc reports CPU time. It is
// 100 on every Linux platform Go supports.
const clockTick = 100

// cpuSeconds returns the process's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted after
	// its closing parenthesis, where state is field 3.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("unexpected /proc stat: %q", raw)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc stat: %q", raw)
	}
	return float64(utime+stime) / clockTick, nil
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// serverCounters is the part of GET /metrics the benchmark reads.
type serverCounters struct {
	PlanCache struct {
		Compiles int64 `json:"compiles"`
		Hits     int64 `json:"hits"`
	} `json:"plan_cache"`
	Vectorize struct {
		Vectorized int64 `json:"ops_vectorized"`
		Fallback   int64 `json:"ops_fallback"`
	} `json:"vectorize"`
	Index struct {
		Scans       int64 `json:"scans"`
		Fallbacks   int64 `json:"fallbacks"`
		RowsMatched int64 `json:"rows_matched"`
	} `json:"index"`
	Routes map[string]struct {
		ShuffleBytes int64 `json:"shuffle_bytes"`
		Exchange     struct {
			ColumnarBytes int64 `json:"columnar_bytes"`
			BoxedBytes    int64 `json:"boxed_bytes"`
		} `json:"shuffle_exchange"`
	} `json:"routes"`
}

func (c *serverCounters) shuffleBytes() (total, columnar, boxed int64) {
	for _, r := range c.Routes {
		total += r.ShuffleBytes
		columnar += r.Exchange.ColumnarBytes
		boxed += r.Exchange.BoxedBytes
	}
	return
}

func (s *server) counters(hc *http.Client) (*serverCounters, error) {
	resp, err := hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	var c serverCounters
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	return &c, nil
}

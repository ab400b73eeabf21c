package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

	"repro/internal/httpapi"
)

// Paths relative to the checkout root, which must be the working directory.
const (
	buildDir = ".bench_build" // binaries (and, under bench/run.sh, the Go caches)
	outDir   = "bench/out"    // work directories, result JSON, rows and spans
)

// buildServer compiles cmd/swserve from the checkout's own source.
func buildServer(ctx context.Context) (string, error) {
	for _, p := range []string{"go.mod", "cmd/swserve"} {
		if _, err := os.Stat(p); err != nil {
			return "", fmt.Errorf("run swload from the root of a full checkout: %w", err)
		}
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "bin", "swserve"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/swserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/swserve: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one swserve child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	log    *os.File
	exited chan struct{} // closed once Wait has returned
	once   sync.Once
}

// startServer launches swserve over dbPath with the fixed flags plus the
// workload's, logging into dir. The caller must stop it.
func startServer(ctx context.Context, bin, dbPath, dir string, w *workload) (*server, error) {
	// Reserve a loopback port, then hand it to the child.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	args := []string{"-db", dbPath, "-listen", addr, "-gpus", "0", "-sse", "2",
		"-executors", "2", "-policy", "PSS", "-adjust=true", "-quiet"}
	args = append(args, w.ServerArgs...)
	if w.JobsDir {
		args = append(args, "-jobs-dir", filepath.Join(dir, "jobs"))
	}
	logf, err := os.Create(filepath.Join(dir, "swserve.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		_ = logf.Close()
		return nil, fmt.Errorf("start swserve: %w", err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is not used: alive() and stop() only ask whether it ended
		close(s.exited)
	}()
	return s, nil
}

func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// waitReady polls /readyz until it answers 200.
func (s *server) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if !s.alive() {
			return fmt.Errorf("swserve exited before it was ready (see %s)", s.log.Name())
		}
		if code, _, err := s.get(ctx, "/readyz"); err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("swserve /readyz never turned 200")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop asks the child to shut down, kills it if it lingers, and waits
// until it has ended.
func (s *server) stop() {
	s.once.Do(func() {
		if s.alive() {
			_ = s.cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-s.exited:
			case <-time.After(5 * time.Second):
				_ = s.cmd.Process.Kill()
			}
		}
		<-s.exited
		_ = s.log.Close()
	})
}

func (s *server) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// procUsage reads the child's CPU seconds (user+sys) and peak resident set
// from /proc.
func (s *server) procUsage() (cpuSeconds, peakRSSMB float64, err error) {
	pid := strconv.Itoa(s.cmd.Process.Pid)
	stat, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, 0, err
	}
	if cpuSeconds, err = parseProcStat(stat); err != nil {
		return 0, 0, err
	}
	status, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, 0, err
	}
	peakRSSMB, err = parseVmHWM(status)
	return cpuSeconds, peakRSSMB, err
}

// clockTick is USER_HZ, which Linux fixes at 100 on every supported
// architecture.
const clockTick = 100

// parseProcStat extracts utime+stime from /proc/<pid>/stat. The command
// name (field 2) may hold spaces, so fields count from its closing paren.
func parseProcStat(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat line %q", stat)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) / clockTick, nil
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// varz is the server's /varz flattened to one number per metric family:
// counters and gauges sum over their label sets; a histogram contributes
// <name>_sum and <name>_count.
type varz map[string]float64

func parseVarz(body []byte) (varz, error) {
	var doc map[string]struct {
		Metrics []struct {
			Value *float64 `json:"value"`
			Count *uint64  `json:"count"`
			Sum   *float64 `json:"sum"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("varz: %w", err)
	}
	out := varz{}
	for name, fam := range doc {
		for _, m := range fam.Metrics {
			if m.Value != nil {
				out[name] += *m.Value
			}
			if m.Count != nil {
				out[name+"_count"] += float64(*m.Count)
			}
			if m.Sum != nil {
				out[name+"_sum"] += *m.Sum
			}
		}
	}
	return out, nil
}

// delta is how much family name grew from before to v.
func (v varz) delta(before varz, name string) float64 { return v[name] - before[name] }

func (s *server) varz(ctx context.Context) (varz, error) {
	code, body, err := s.get(ctx, "/varz")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /varz: status %d", code)
	}
	return parseVarz(body)
}

// jobs lists the server's job records.
func (s *server) jobs(ctx context.Context) ([]httpapi.JobView, error) {
	code, body, err := s.get(ctx, "/jobs")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /jobs: status %d", code)
	}
	var doc struct {
		Jobs []httpapi.JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("GET /jobs: %w", err)
	}
	return doc.Jobs, nil
}

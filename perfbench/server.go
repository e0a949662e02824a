package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// server is one running `crashprone serve` child.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *lockedBuffer
	exited chan struct{} // closed once the child is reaped
	once   sync.Once
}

// lockedBuffer collects the child's stderr; exec copies into it from its
// own goroutine while a failing run may read it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// probe is the readiness client: no keep-alive, so polling leaves no
// connection behind.
var probe = &http.Client{
	Timeout:   2 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// startServer execs `crashprone serve` (under taskset when pin names a
// CPU list) and waits for GET /healthz to answer 200 with every model
// loaded. The returned duration runs from exec to that answer.
func startServer(bin, pin, dir string, feedback bool, models int) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	args := []string{bin, "serve", "-dir", dir, "-addr", "127.0.0.1:" + strconv.Itoa(port)}
	if feedback {
		args = append(args, "-feedback-window", strconv.Itoa(feedbackWindow))
	}
	if pin != "" {
		args = append([]string{"taskset", "-c", pin}, args...)
	}
	s := &server{
		base:   "http://127.0.0.1:" + strconv.Itoa(port),
		stderr: &lockedBuffer{},
		exited: make(chan struct{}),
	}
	s.cmd = exec.Command(args[0], args[1:]...)
	s.cmd.Stderr = s.stderr
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting server: %w", err)
	}
	go func() {
		// Wait reaps the child; stop waits for this goroutine to see it.
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := start.Add(60 * time.Second)
	for {
		if n, ok := healthy(s.base); ok && n == models {
			return s, time.Since(start), nil
		}
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("server exited before ready: %s", s.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after 60s: %s", s.stderr.String())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// healthy reports the loaded model count when /healthz answers 200.
func healthy(base string) (int, bool) {
	resp, err := probe.Get(base + "/healthz")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	var h struct {
		Ready  bool `json:"ready"`
		Models int  `json:"models"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&h) != nil || !h.Ready {
		return 0, false
	}
	return h.Models, true
}

// stop kills the child and waits until it is reaped. It is safe to call
// more than once and from a signal handler.
func (s *server) stop() {
	s.once.Do(func() {
		s.cmd.Process.Kill()
		<-s.exited
	})
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpuTicks reads the process's utime+stime from /proc/<pid>/stat, in
// clock ticks.
func cpuTicks(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat times", pid)
	}
	return utime + stime, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes it
// at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procStatus reads one field of /proc/<pid>/status ("self" for this
// process).
func procStatus(pid, field string) (string, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// peakRSSMB is the process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	v, err := procStatus(strconv.Itoa(pid), "VmHWM")
	if err != nil {
		return 0, err
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM %q: %v", v, err)
	}
	return kb / 1024, nil
}

// cpuList expands a Cpus_allowed_list value such as "0-1,4".
func cpuList(s string) ([]int, error) {
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return nil, fmt.Errorf("cpu list %q", s)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return nil, fmt.Errorf("cpu list %q", s)
			}
		}
		for c := a; c <= b; c++ {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// scrape is one GET /metrics: the exposition's series and the time the
// scrape took.
type scrape struct {
	series  map[string]float64
	elapsed time.Duration
}

func scrapeMetrics(base string) (scrape, error) {
	start := time.Now()
	resp, err := probe.Get(base + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	elapsed := time.Since(start)
	if err != nil {
		return scrape{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	sc := scrape{series: map[string]float64{}, elapsed: elapsed}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return scrape{}, fmt.Errorf("metrics line %q: %v", line, err)
		}
		sc.series[line[:i]] = v
	}
	return sc, nil
}

// handlerTime sums the server's own request-duration histogram over the
// admitted endpoints: total seconds and request count.
func (sc scrape) handlerTime() (sum, count float64) {
	for name, v := range sc.series {
		switch {
		case strings.HasPrefix(name, "crashprone_request_duration_seconds_sum{"):
			sum += v
		case strings.HasPrefix(name, "crashprone_request_duration_seconds_count{"):
			count += v
		}
	}
	return sum, count
}

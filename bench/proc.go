package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every mainstream Linux build).
const clockTicks = 100

// childRun is the cost of one finished child process.
type childRun struct {
	wall  time.Duration
	cpu   time.Duration // user + system
	rssMB float64       // peak resident set
}

// runChild runs bin with args to completion and returns its wall time
// and rusage. Standard output is discarded; standard error is returned
// in the error when the child fails.
func runChild(bin string, args ...string) (childRun, error) {
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return childRun{}, fmt.Errorf("%s %s: %v: %s", bin, strings.Join(args, " "), err, stderr.String())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return childRun{
		wall:  wall,
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssMB: float64(ru.Maxrss) / 1024, // Maxrss is in KiB on Linux
	}, nil
}

// server is one running errserve child.
type server struct {
	cmd  *exec.Cmd
	base string
	done chan struct{}
}

// live tracks every started server so an interrupted run still stops
// them all before exiting.
var live struct {
	sync.Mutex
	servers map[*server]bool
}

// startServer execs errserve on a free loopback port and returns once
// /healthz answers 200, with the time from exec to that answer.
func startServer(bin, logPath string, args ...string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { cmd.Wait(); close(s.done) }() // exit status is irrelevant: the benchmark stops it
	live.Lock()
	if live.servers == nil {
		live.servers = map[*server]bool{}
	}
	live.servers[s] = true
	live.Unlock()

	// The poll runs on a thread of its own so that it can sleep in
	// nanosleep; it sends the time to the first 200, or 0 on failure.
	ready := make(chan time.Duration, 1)
	go func() {
		pinWorker()
		for time.Since(start) < 60*time.Second {
			if probeHealthz(addr) {
				ready <- time.Since(start)
				return
			}
			select {
			case <-s.done:
				ready <- 0
				return
			default:
			}
			sleepUntil(time.Now().Add(pollGap))
		}
		ready <- 0
	}()
	if d := <-ready; d > 0 {
		return s, d, nil
	}
	s.stop()
	return nil, 0, fmt.Errorf("errserve exited or was not healthy within 60s (log: %s)", logPath)
}

// pollGap is the pause between two health probes of a starting server.
// The probe thread sleeps in nanosleep, so the start-up time is read to
// within this gap rather than the millisecond of time.Sleep.
const pollGap = 100 * time.Microsecond

// probeHealthz reports whether GET /healthz on addr answers 200. A
// refused connection, the usual answer while the server starts, costs a
// few microseconds.
func probeHealthz(addr string) bool {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return false
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.0\r\nHost: "+addr+"\r\n\r\n"); err != nil {
		return false
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// stop sends SIGTERM, waits for the exit, and kills the process if it
// has not drained within five seconds.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	live.Lock()
	delete(live.servers, s)
	live.Unlock()
}

func stopAll() {
	live.Lock()
	all := make([]*server, 0, len(live.servers))
	for s := range live.servers {
		all = append(all, s)
	}
	live.Unlock()
	for _, s := range all {
		s.stop()
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpuTime is the process's user+system CPU so far, from
// /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64) // field 14 overall
	st, err2 := strconv.ParseInt(f[12], 10, 64) // field 15 overall
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSSMB is the process's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.pid())
}

// get fetches one path from the server.
func (s *server) get(path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// envStamp records where and on what a result was measured.
func envStamp(root string) map[string]any {
	commit, modified := "unknown", false
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		commit += "+modified"
	}
	if commit == "unknown" {
		cmd := exec.Command("git", "-C", root, "rev-parse", "HEAD")
		if out, err := cmd.Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return map[string]any{
		"commit":     commit,
		"go_version": runtime.Version(),
		"cpu_model":  cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
}

package main

// proc.go builds, spawns, observes and stops the real rdfserved binary.

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/rdfserved of the repository at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "rdfserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rdfserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building rdfserved: %v\n%s", err, out)
	}
	return bin, nil
}

type serverProc struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	// exited is closed once the process has ended and been reaped.
	exited chan struct{}
	// bootS is spawn to first /healthz 200.
	bootS float64
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer spawns rdfserved with args and waits until /healthz answers
// 200. The server's log goes to logPath.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should this process die without running its clean-up, the kernel stops
	// the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &serverProc{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	go func() { cmd.Wait(); close(s.exited) }()
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.bootS = time.Since(start).Seconds()
				return s, nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("rdfserved exited during boot, see %s", logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > 120*time.Second {
			s.kill()
			return nil, fmt.Errorf("rdfserved not healthy after 120s, see %s", logPath)
		}
	}
}

// kill SIGKILLs the server and waits until it has ended.
func (s *serverProc) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
	s.log.Close()
}

// cpuSeconds is the server's user+system CPU so far. Linux reports it in
// clock ticks of 1/100 s.
func (s *serverProc) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", b)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", b)
	}
	return (utime + stime) / 100, nil
}

// peakRSSMB is the server's VmHWM.
func (s *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(s.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", s.cmd.Process.Pid)
}

// scrape reads /metrics into series name (with labels) → value.
func (s *serverProc) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// dirSizeMB sums the regular files under dir.
func dirSizeMB(dir string) float64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return float64(n) / (1 << 20)
}

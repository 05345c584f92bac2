package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a program binary the benchmark runs as a child process.
type child struct {
	cmd            *exec.Cmd
	start          time.Time
	stdout, stderr *lines
	exited         chan struct{} // closed once the process has been waited for
	err            error         // Wait's result, valid after exited
}

// startChild starts bin with args; its output is kept in memory. The
// child is killed when ctx is cancelled, and by the kernel if the
// benchmark itself dies first.
func startChild(ctx context.Context, bin string, args ...string) (*child, error) {
	c := &child{stdout: &lines{}, stderr: &lines{}, exited: make(chan struct{})}
	c.cmd = exec.CommandContext(ctx, bin, args...)
	c.cmd.Stdout, c.cmd.Stderr = c.stdout, c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	c.start = time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// wait waits up to limit for the child to exit on its own, killing it
// after that, and returns its wall time and exit error.
func (c *child) wait(limit time.Duration) (time.Duration, error) {
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-c.exited:
	case <-t.C:
		_ = c.cmd.Process.Kill() // the process may exit on its own meanwhile
		<-c.exited
		return time.Since(c.start), fmt.Errorf("%s: killed after %v", c.cmd.Path, limit)
	}
	return time.Since(c.start), c.err
}

// stop interrupts the child (a graceful drain for `whisper serve`), waits
// up to grace for it to exit and kills it after that.
func (c *child) stop(grace time.Duration) error {
	select {
	case <-c.exited:
		return c.err
	default:
	}
	_ = c.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	_, err := c.wait(grace)
	return err
}

// rusage is the exited child's resource usage.
func (c *child) rusage() *syscall.Rusage {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru
	}
	return &syscall.Rusage{}
}

// announced waits up to limit for the child to write a line starting
// with prefix and returns the rest of that line.
func (c *child) announced(l *lines, prefix string, limit time.Duration) (string, error) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		if rest, ok := l.find(prefix); ok {
			return rest, nil
		}
		select {
		case <-c.exited:
			if rest, ok := l.find(prefix); ok {
				return rest, nil
			}
			return "", fmt.Errorf("%s exited (%v) before announcing %q: %s", c.cmd.Path, c.err, prefix, lastLines(c.stderr.String(), 5))
		case <-time.After(5 * time.Millisecond):
		}
	}
	return "", fmt.Errorf("%s did not announce %q within %v", c.cmd.Path, prefix, limit)
}

// lines is an io.Writer that keeps everything a child writes.
type lines struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lines) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lines) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// find returns the rest of the first complete line starting with prefix.
func (l *lines) find(prefix string) (string, bool) {
	s := l.String()
	for {
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			return "", false
		}
		if line := s[:i]; strings.HasPrefix(line, prefix) {
			return strings.TrimPrefix(line, prefix), true
		}
		s = s[i+1:]
	}
}

func lastLines(s string, n int) string {
	ls := strings.Split(strings.TrimSpace(s), "\n")
	if len(ls) > n {
		ls = ls[len(ls)-n:]
	}
	return strings.Join(ls, " | ")
}

// memStats is the part of a Go program's expvar memstats the benchmark
// reads from a child's debug endpoint.
type memStats struct {
	TotalAlloc    uint64
	NumGC         uint32
	GCCPUFraction float64
}

// getMemStats reads a child's /debug/vars memstats.
func getMemStats(client *http.Client, debugAddr string) (memStats, error) {
	var doc struct {
		Memstats memStats `json:"memstats"`
	}
	resp, err := client.Get("http://" + debugAddr + "/debug/vars")
	if err != nil {
		return doc.Memstats, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doc.Memstats, errors.New(resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return doc.Memstats, err
}

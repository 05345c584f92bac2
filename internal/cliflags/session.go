package cliflags

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"github.com/whisper-sim/whisper/internal/telemetry"
)

// Session is the live observability state of one CLI run: the
// -journal, -debug-addr and -chrome-trace surface that Obs registers.
// Close (usually deferred) unwinds it: spans and the final snapshot go
// to the journal, files are flushed, the debug listener stops, and the
// previous process-wide registry and tracer are restored.
type Session struct {
	// Journal is the run journal, or nil without -journal (its methods
	// are nil-safe).
	Journal *telemetry.Journal

	journalFile *os.File
	journalPath string
	tracebuf    *telemetry.TraceBuffer
	chromePath  string
	stderr      io.Writer
	closers     []func() // LIFO
}

// Start activates the flags' observability surface for one run. m is
// the journal's manifest line (the caller sets Tool, Workers and
// Config; Start fills in the Go version and GOMAXPROCS). ok is false
// when a listener or file could not be opened; the error is on stderr,
// the session is already unwound, and the caller should exit 2.
func (o Obs) Start(m telemetry.Manifest, stderr io.Writer) (*Session, bool) {
	s := &Session{stderr: stderr}
	// A journal or debug endpoint needs the process-wide registry; a
	// fresh one scopes the final snapshot to exactly this run.
	if *o.Journal != "" || *o.DebugAddr != "" {
		prev := telemetry.Default()
		telemetry.Install(telemetry.NewRegistry())
		s.closers = append(s.closers, func() { telemetry.Install(prev) })
	}
	// Tracer before journal: the journal's close writes the spans the
	// tracer gathered.
	if *o.ChromeTrace != "" {
		s.tracebuf = telemetry.NewTraceBuffer()
		s.chromePath = *o.ChromeTrace
		prev := telemetry.Tracer()
		telemetry.InstallTracer(s.tracebuf)
		s.closers = append(s.closers, func() { telemetry.InstallTracer(prev) })
	}
	if *o.DebugAddr != "" {
		srv, err := telemetry.ServeDebug(*o.DebugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "debug endpoint: %v\n", err)
			s.unwind()
			return nil, false
		}
		fmt.Fprintf(stderr, "debug endpoint: http://%s/metrics\n", srv.Addr())
		s.closers = append(s.closers, func() { srv.Close() })
	}
	if *o.Journal != "" {
		f, err := os.Create(*o.Journal)
		if err != nil {
			fmt.Fprintf(stderr, "journal: %v\n", err)
			s.unwind()
			return nil, false
		}
		s.journalFile = f
		s.journalPath = *o.Journal
		s.Journal = telemetry.NewJournal(f)
		m.Go = runtime.Version()
		m.GOMAXPROCS = runtime.GOMAXPROCS(0)
		s.Journal.WriteManifest(m)
	}
	return s, true
}

// unwind runs the accumulated closers newest-first.
func (s *Session) unwind() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// Close finalizes the session and returns a non-zero exit code when an
// export failed (0 otherwise). Call it once.
func (s *Session) Close() int {
	code := 0
	if s.Journal != nil {
		s.Journal.WriteTraceSpans(s.tracebuf)
		s.Journal.WriteSnapshot(telemetry.Default())
		if err := s.Journal.Err(); err != nil {
			fmt.Fprintf(s.stderr, "journal: %v\n", err)
			code = 1
		}
		if err := s.journalFile.Close(); err != nil && code == 0 {
			fmt.Fprintf(s.stderr, "journal: %v\n", err)
			code = 1
		}
		if code == 0 {
			fmt.Fprintf(s.stderr, "wrote journal to %s\n", s.journalPath)
		}
	}
	if s.tracebuf != nil {
		if err := writeChromeTrace(s.chromePath, s.tracebuf); err != nil {
			fmt.Fprintf(s.stderr, "chrome trace: %v\n", err)
			code = 1
		} else {
			fmt.Fprintf(s.stderr, "wrote Chrome trace to %s (load in about://tracing or Perfetto)\n", s.chromePath)
		}
	}
	s.unwind()
	return code
}

// CloseCode folds Close's exit code into a run's, usually as
//
//	defer func() { code = sess.CloseCode(code) }()
//
// An export failure surfaces unless the run already failed harder.
func (s *Session) CloseCode(code int) int {
	if c := s.Close(); code == 0 {
		return c
	}
	return code
}

// writeChromeTrace writes the collected span buffer to path in the
// Chrome trace-event JSON format.
func writeChromeTrace(path string, tb *telemetry.TraceBuffer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tb.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

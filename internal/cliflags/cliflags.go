// Package cliflags is the shared flag vocabulary of the whisper CLIs.
//
// Every subcommand of cmd/whisper and cmd/experiments spells the common
// flags identically — same name, same default, same usage string — by
// registering them through this package instead of calling fs.String
// inline. The table-driven tests in both commands assert that the
// shared set (Common) registers on every subcommand and that any
// subcommand offering trace input uses the canonical -trace-file /
// -trace-format pair, so a renamed or re-worded flag fails CI instead
// of drifting per subcommand. The observability set also means the
// same thing everywhere: every run activates it through one Session
// (see Obs.Start).
package cliflags

import "flag"

// Canonical usage strings, exported so the per-command tests can assert
// a registered flag carries exactly this wording.
const (
	UsageTraceFile   = "imported branch trace file (text or WSPT binary; see docs/traces.md)"
	UsageTraceFormat = "imported trace format: auto, text, or binary"
	UsageJournal     = "write a JSONL run journal (manifest, per-unit events, final snapshot) to this file"
	UsageDebugAddr   = "serve /metrics, /debug/vars and /debug/pprof on this address for the duration of the run"
	UsageChromeTrace = "write the run's phase/window spans as Chrome trace-event JSON to this file"
)

// Obs carries the observability flags every subcommand shares.
type Obs struct {
	Journal     *string
	DebugAddr   *string
	ChromeTrace *string
}

// Trace carries the canonical trace-input flag pair.
type Trace struct {
	File   *string
	Format *string
}

// Common registers the shared observability set (-journal, -debug-addr,
// -chrome-trace) on fs. Every subcommand of every whisper CLI registers
// this set.
func Common(fs *flag.FlagSet) Obs {
	return Obs{
		Journal:     fs.String("journal", "", UsageJournal),
		DebugAddr:   fs.String("debug-addr", "", UsageDebugAddr),
		ChromeTrace: fs.String("chrome-trace", "", UsageChromeTrace),
	}
}

// TraceInput registers the canonical -trace-file/-trace-format pair on
// fs, for subcommands that accept an imported trace window.
func TraceInput(fs *flag.FlagSet) Trace {
	return Trace{
		File:   fs.String("trace-file", "", UsageTraceFile),
		Format: fs.String("trace-format", "auto", UsageTraceFormat),
	}
}

// CommonNames lists the shared observability flag names, in registration
// order, for the per-command table tests.
func CommonNames() []string { return []string{"journal", "debug-addr", "chrome-trace"} }

// TraceNames lists the canonical trace-input flag names.
func TraceNames() []string { return []string{"trace-file", "trace-format"} }

// Usage maps every canonical flag name to its required usage string.
func Usage() map[string]string {
	return map[string]string{
		"trace-file":   UsageTraceFile,
		"trace-format": UsageTraceFormat,
		"journal":      UsageJournal,
		"debug-addr":   UsageDebugAddr,
		"chrome-trace": UsageChromeTrace,
	}
}

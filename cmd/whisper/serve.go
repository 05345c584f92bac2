package main

// whisper serve / whisper fleet: the multi-tenant serving surface.
//
// serve runs the hint daemon from internal/server: tenants stream
// trace shards in, the daemon keeps a rolling profile per tenant,
// retrains when the window drifts past the threshold, and serves
// versioned WSPA bundles with content-fingerprint ETags (the HTTP
// contract is documented in docs/serving.md).
//
// fleet is the matching client load driver from internal/fleet: it
// simulates N tenants streaming catalog shards, switching application
// mid-stream to force drift retrains, and hot-reloading bundles
// through conditional GETs.

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/whisper-sim/whisper/internal/cliflags"
	"github.com/whisper-sim/whisper/internal/core"
	"github.com/whisper-sim/whisper/internal/fleet"
	"github.com/whisper-sim/whisper/internal/server"
	"github.com/whisper-sim/whisper/internal/telemetry"
)

// cmdServe runs the hint daemon until SIGINT/SIGTERM, then drains
// in-flight requests and exits.
func cmdServe(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("whisper serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrFlag := fs.String("addr", "127.0.0.1:9180", "listen address (host:port; port 0 picks a free port)")
	dirFlag := fs.String("dir", "", "bundle artifact directory (required)")
	exploreFlag := fs.Float64("explore", 0.05, "fraction of formulas explored per retrain (>=1 is exhaustive)")
	driftFlag := fs.Float64("drift-threshold", 0, "retrain when window drift exceeds this (0 = default)")
	minRetrainFlag := fs.Int("min-retrain-records", 0, "window records required before a drift retrain (0 = default)")
	inflightFlag := fs.Int("max-inflight", 0, "per-tenant concurrent shard uploads (0 = default)")
	bodyFlag := fs.Int64("max-body-bytes", 0, "largest accepted shard body in bytes (0 = default)")
	tenantsFlag := fs.Int("max-tenants", 0, "tenant table capacity (0 = default)")
	timeoutFlag := fs.Duration("request-timeout", 0, "per-request deadline (0 = default, <0 disables)")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dirFlag == "" {
		fmt.Fprintln(stderr, "serve: -dir is required (bundle artifacts need a home)")
		return 2
	}
	// Checked before the server exists: a bad fraction must stop the
	// daemon from starting, not fail its first retrain.
	if !exploreOK(stderr, fs.Name(), *exploreFlag) {
		return 2
	}
	sess, ok := obs.Start(telemetry.Manifest{Tool: "whisper serve",
		Config: map[string]any{"addr": *addrFlag, "dir": *dirFlag, "explore": *exploreFlag}}, stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()

	params := core.DefaultParams()
	params.ExploreFraction = *exploreFlag
	srv, err := server.NewServer(server.Config{
		Dir:               *dirFlag,
		Params:            params,
		DriftThreshold:    *driftFlag,
		MinRetrainRecords: *minRetrainFlag,
		MaxInflight:       *inflightFlag,
		MaxBodyBytes:      *bodyFlag,
		MaxTenants:        *tenantsFlag,
		RequestTimeout:    *timeoutFlag,
		Journal:           sess.Journal,
	})
	if err != nil {
		fmt.Fprintf(stderr, "serve: %v\n", err)
		if errors.Is(err, server.ErrInvalidConfig) {
			return 2
		}
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		errc <- srv.ListenAndServe(*addrFlag, func(addr net.Addr) {
			fmt.Fprintf(stdout, "whisper serve: listening on http://%s\n", addr)
		})
	}()
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintf(stderr, "serve: %v\n", err)
			return 1
		}
		return 0
	case <-ctx.Done():
		stop()
		fmt.Fprintln(stdout, "whisper serve: shutting down (draining in-flight requests)")
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			fmt.Fprintf(stderr, "serve: shutdown: %v\n", err)
			return 1
		}
		if err := <-errc; err != nil {
			fmt.Fprintf(stderr, "serve: %v\n", err)
			return 1
		}
		return 0
	}
}

// cmdFleet drives a simulated tenant fleet against a running daemon.
func cmdFleet(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("whisper fleet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addrFlag := fs.String("addr", "127.0.0.1:9180", "daemon address (host:port or http:// URL)")
	tenantsFlag := fs.Int("tenants", 0, "simulated tenants (0 = default)")
	shardsFlag := fs.Int("shards", 0, "shards streamed per tenant (0 = default)")
	recordsFlag := fs.Int("shard-records", 0, "records per shard (0 = default)")
	appsFlag := fs.String("apps", "", "comma-separated catalog apps the tenants draw from (default: the Table I set)")
	switchFlag := fs.Int("switch-at", 0, "shard index where tenants switch application (0 = half-way, <0 never)")
	jsonFlag := fs.String("json", "", "also write the fleet report JSON to this file")
	obs := cliflags.Common(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sess, ok := obs.Start(telemetry.Manifest{Tool: "whisper fleet",
		Config: map[string]any{"addr": *addrFlag, "tenants": *tenantsFlag, "shards": *shardsFlag}}, stderr)
	if !ok {
		return 2
	}
	defer func() { code = sess.CloseCode(code) }()

	base := *addrFlag
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var apps []string
	if *appsFlag != "" {
		for _, a := range strings.Split(*appsFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				apps = append(apps, a)
			}
		}
	}
	rep, err := fleet.Run(fleet.Config{
		BaseURL:      base,
		Client:       &http.Client{Timeout: 120 * time.Second},
		Tenants:      *tenantsFlag,
		Shards:       *shardsFlag,
		ShardRecords: *recordsFlag,
		Apps:         apps,
		SwitchAt:     *switchFlag,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(stderr, format+"\n", a...)
		},
	})
	if err != nil {
		fmt.Fprintf(stderr, "fleet: %v\n", err)
		return 1
	}

	fmt.Fprintf(stdout, "== fleet: %d tenants ==\n", len(rep.Tenants))
	for _, tr := range rep.Tenants {
		fmt.Fprintf(stdout, "%-12s  shards %-3d records %-8d retrains %-3d reloads %-3d 304s %-3d final v%d (%d hints)\n",
			tr.Tenant, tr.Shards, tr.Records, tr.Retrains, tr.Reloads, tr.NotModified, tr.FinalVersion, tr.FinalHints)
	}
	fmt.Fprintf(stdout, "total: shards %d  records %d  retrains %d  reloads %d  304s %d  rejected %d\n",
		rep.Shards, rep.Records, rep.Retrains, rep.Reloads, rep.NotModified, rep.Rejected)
	// Retrains beyond the per-tenant initial train are drift-triggered.
	fmt.Fprintf(stdout, "drift retrains: %d\n", rep.Retrains-len(rep.Tenants))

	if *jsonFlag != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonFlag, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "fleet: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote fleet report JSON to %s\n", *jsonFlag)
	}
	return 0
}

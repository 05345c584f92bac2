package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/whisper-sim/whisper/internal/server"
	"github.com/whisper-sim/whisper/internal/store"
)

// sampleTrace is the committed worked-example trace fixture.
const sampleTrace = "../../examples/traces/sample.txt"

// TestTraceStagedMatchesOneShot drives profile -> train -> apply over
// the committed example trace through artifact files and requires the
// evaluation block to be byte-identical to the fused -trace-file run's.
// It also pins the hint artifact's identity: a second train on the same
// profile writes the same bytes, and the daemon's bundle for the same
// records carries the same hint section.
func TestTraceStagedMatchesOneShot(t *testing.T) {
	dir := t.TempDir()
	profPath := filepath.Join(dir, "trace.profile.wspa")
	hintPath := filepath.Join(dir, "trace.hints.wspa")

	code, oneShot, errOut := runCLI(t, "-trace-file", sampleTrace)
	if code != 0 {
		t.Fatalf("one-shot exit %d: %s", code, errOut)
	}

	code, _, errOut = runCLI(t, "profile", "-trace-file", sampleTrace, "-o", profPath)
	if code != 0 {
		t.Fatalf("profile exit %d: %s", code, errOut)
	}
	code, _, errOut = runCLI(t, "train", "-profile", profPath, "-o", hintPath)
	if code != 0 {
		t.Fatalf("train exit %d: %s", code, errOut)
	}
	code, applyOut, errOut := runCLI(t, "apply", "-hints", hintPath, "-trace-file", sampleTrace)
	if code != 0 {
		t.Fatalf("apply exit %d: %s", code, errOut)
	}

	want := evaluationBlock(t, oneShot)
	got := evaluationBlock(t, applyOut)
	if got != want {
		t.Fatalf("staged trace evaluation differs from one-shot:\n--- one-shot\n%s\n--- staged\n%s", want, got)
	}
	if !strings.Contains(oneShot, "hints trained") {
		t.Fatalf("trace flow trained nothing:\n%s", oneShot)
	}

	again := filepath.Join(dir, "trace.hints.again.wspa")
	if code, _, errOut := runCLI(t, "train", "-profile", profPath, "-o", again); code != 0 {
		t.Fatalf("second train exit %d: %s", code, errOut)
	}
	first, err := os.ReadFile(hintPath)
	if err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("two train runs on one profile wrote different hint artifacts")
	}

	staged, err := store.Decode(first)
	if err != nil || len(staged.Train.Hints) == 0 {
		t.Fatalf("staged hint artifact: %v (want a non-empty hint section)", err)
	}
	served, err := store.Decode(serveV1(t, sampleTrace))
	if err != nil {
		t.Fatalf("decoding served bundle: %v", err)
	}
	if !reflect.DeepEqual(served.Train, staged.Train) || served.WindowInstrs != staged.WindowInstrs {
		t.Fatalf("served hint section differs from the staged one: %d vs %d hints, window %d vs %d instrs",
			len(served.Train.Hints), len(staged.Train.Hints), served.WindowInstrs, staged.WindowInstrs)
	}
}

// serveV1 posts the trace file as the first shard of a fresh daemon's
// tenant and returns the v1 bundle that shard trained.
func serveV1(t *testing.T, tracePath string) []byte {
	t.Helper()
	srv, err := server.NewServer(server.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	shard, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/tenants/sample/shards", "text/plain", bytes.NewReader(shard))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST shard: %s", resp.Status)
	}
	resp, err = ts.Client().Get(ts.URL + "/v1/tenants/sample/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Whisper-Bundle-Version") != "1" {
		t.Fatalf("GET bundle: %s, version %q, err %v", resp.Status, resp.Header.Get("X-Whisper-Bundle-Version"), err)
	}
	return body
}

// TestTraceApplyGuards: trace-trained hints refuse to run without the
// trace, and refuse a different trace (fingerprint mismatch).
func TestTraceApplyGuards(t *testing.T) {
	dir := t.TempDir()
	profPath := filepath.Join(dir, "p.wspa")
	hintPath := filepath.Join(dir, "h.wspa")
	if code, _, errOut := runCLI(t, "profile", "-trace-file", sampleTrace, "-o", profPath); code != 0 {
		t.Fatalf("profile exit %d: %s", code, errOut)
	}
	if code, _, errOut := runCLI(t, "train", "-profile", profPath, "-o", hintPath); code != 0 {
		t.Fatalf("train exit %d: %s", code, errOut)
	}

	code, _, errOut := runCLI(t, "apply", "-hints", hintPath)
	if code != 2 || !strings.Contains(errOut, "-trace-file is required") {
		t.Fatalf("missing -trace-file: exit %d, err %q", code, errOut)
	}

	// A different (truncated) trace must be rejected by fingerprint.
	data, err := os.ReadFile(sampleTrace)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	other := filepath.Join(dir, "other.txt")
	if err := os.WriteFile(other, []byte(strings.Join(lines[:len(lines)/2], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut = runCLI(t, "apply", "-hints", hintPath, "-trace-file", other)
	if code != 1 || !strings.Contains(errOut, "does not match the trace") {
		t.Fatalf("wrong trace: exit %d, err %q", code, errOut)
	}
}

// TestConvertRoundTripFixture locks the committed fixtures: sample.wspt
// is exactly sample.txt converted to binary, and converting it back
// reproduces sample.txt bit for bit.
func TestConvertRoundTripFixture(t *testing.T) {
	dir := t.TempDir()
	wspt := filepath.Join(dir, "sample.wspt")
	back := filepath.Join(dir, "back.txt")

	code, out, errOut := runCLI(t, "convert", "-i", sampleTrace, "-o", wspt, "-to", "binary")
	if code != 0 {
		t.Fatalf("convert exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "(text -> binary)") {
		t.Fatalf("unexpected convert output: %q", out)
	}
	want, err := os.ReadFile("../../examples/traces/sample.wspt")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(wspt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("converted binary differs from the committed sample.wspt")
	}

	if code, _, errOut := runCLI(t, "convert", "-i", wspt, "-o", back, "-to", "text"); code != 0 {
		t.Fatalf("convert back exit %d: %s", code, errOut)
	}
	text, err := os.ReadFile(sampleTrace)
	if err != nil {
		t.Fatal(err)
	}
	round, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(round, text) {
		t.Fatal("text -> binary -> text is not bit-exact on the fixture")
	}
}

// TestConvertErrors: bad flags and malformed inputs exit non-zero and
// leave no partial output behind.
func TestConvertErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.wspt")

	if code, _, _ := runCLI(t, "convert", "-i", sampleTrace, "-o", out); code != 2 {
		t.Fatal("missing -to accepted")
	}
	if code, _, _ := runCLI(t, "convert", "-i", sampleTrace, "-o", out, "-to", "auto"); code != 2 {
		t.Fatal("-to auto accepted")
	}
	for _, args := range [][]string{{"-to", "wbt"}, {"-from", "wbt", "-to", "binary"}} {
		code, _, errOut := runCLI(t, append([]string{"convert", "-i", sampleTrace, "-o", out}, args...)...)
		if code != 2 || strings.Count(errOut, "\n") != 1 {
			t.Fatalf("convert %v: exit %d, stderr %q; want 2 with one line", args, code, errOut)
		}
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("400010 400070 cond T 5\nbroken line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t, "convert", "-i", bad, "-o", out, "-to", "binary")
	if code != 1 || !strings.Contains(errOut, "line 2") {
		t.Fatalf("malformed input: exit %d, err %q", code, errOut)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatal("failed convert left a partial output file")
	}
}

// TestProfileFlagConflicts: -app and -trace-file are mutually
// exclusive, and one of them is required.
func TestProfileFlagConflicts(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.wspa")
	if code, _, _ := runCLI(t, "profile", "-o", out); code != 2 {
		t.Fatal("profile without -app or -trace-file accepted")
	}
	code, _, _ := runCLI(t, "profile", "-app", "kafka", "-trace-file", sampleTrace, "-o", out)
	if code != 2 {
		t.Fatal("profile with both -app and -trace-file accepted")
	}
}

package core_test

// Record/replay determinism tests for the asynchronous hybrid engine: a
// recorded schedule replays bit-identically, closing the "Async
// determinism" roadmap item. The kill/gen client is used throughout —
// its string states are instance-independent, so whole result tables can
// be compared byte-for-byte across fresh pipelines.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"swift/internal/core"
	"swift/internal/ir"
)

// recordRun executes one live asynchronous run on a fresh pipeline with
// recording armed and returns the trace and the run's fingerprint.
func recordRun(t *testing.T, prog func() *ir.Program) (*core.Trace, string) {
	t.Helper()
	kg := drainClient()
	client := core.Synchronized[string, string, string](kg)
	an, err := core.NewAnalysis[string, string, string](client, prog())
	if err != nil {
		t.Fatal(err)
	}
	init := kg.State(kg.MakeBits())
	trace := &core.Trace{Label: "drain"}
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.RecordTrace = trace
	res := an.RunSwiftAsync(init, cfg)
	if res.Err != nil {
		t.Fatalf("record run failed: %v", res.Err)
	}
	return trace, fingerprintResult(res, "main", init)
}

// replayRun replays a trace on a fresh pipeline and returns the result's
// fingerprint.
func replayRun(t *testing.T, prog func() *ir.Program, trace *core.Trace) string {
	t.Helper()
	kg := drainClient()
	an, err := core.NewAnalysis[string, string, string](kg, prog())
	if err != nil {
		t.Fatal(err)
	}
	init := kg.State(kg.MakeBits())
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.ReplayTrace = trace
	res := an.RunSwiftAsync(init, cfg)
	if res.Err != nil {
		t.Fatalf("replay failed: %v", res.Err)
	}
	return fingerprintResult(res, "main", init)
}

// TestReplayMatchesRecord pins full byte identity between a recorded
// asynchronous run and its single-threaded replay: same counters, same
// Triggered, same bottom-up summaries, same exit states.
func TestReplayMatchesRecord(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, prog := range []struct {
		name  string
		build func() *ir.Program
	}{{"drain", drainProgram}, {"blocked", blockedProgram}} {
		trace, recorded := recordRun(t, prog.build)
		if len(trace.Events) == 0 {
			t.Fatalf("%s: recorded no events", prog.name)
		}
		replayed := replayRun(t, prog.build, trace)
		if replayed != recorded {
			t.Errorf("%s: replay diverges from record\n--- record ---\n%s--- replay ---\n%s",
				prog.name, recorded, replayed)
		}
	}
	checkNoLeakedGoroutines(t, before)
}

// TestReplayMatchesRecordUnderPanics replays a schedule whose trigger
// panics on every attempt: the recorded run retries it once (a respawn
// with no event in between) before failing it, and the replay must count
// both contained panics, as the recorded run did.
func TestReplayMatchesRecordUnderPanics(t *testing.T) {
	before := runtime.NumGoroutine()
	init := drainClient().State(drainClient().MakeBits())
	run := func(cfg core.Config) *core.Result[string, string, string] {
		client := core.Synchronized[string, string, string](&rtransPanicClient{Client: drainClient()})
		an, err := core.NewAnalysis[string, string, string](client, drainProgram())
		if err != nil {
			t.Fatal(err)
		}
		cfg.K = 1
		return an.RunSwiftAsync(init, cfg)
	}
	trace := &core.Trace{}
	cfg := core.DefaultConfig()
	cfg.RecordTrace = trace
	rec := run(cfg)
	if rec.Err != nil || rec.ClientPanics != 2 {
		t.Fatalf("record: err=%v ClientPanics=%d, want nil and 2", rec.Err, rec.ClientPanics)
	}
	cfg = core.DefaultConfig()
	cfg.ReplayTrace = trace
	rep := run(cfg)
	if got, want := fingerprintResult(rep, "main", init), fingerprintResult(rec, "main", init); got != want {
		t.Errorf("replay diverges from record\n--- record ---\n%s--- replay ---\n%s", want, got)
	}
	checkNoLeakedGoroutines(t, before)
}

// TestReplayDeterministicParallel is the acceptance pin: replaying one
// recorded trace on fresh, identically built pipelines is bit-identical,
// including when the replays run concurrently with each other (run with
// -race and -parallel > 1).
func TestReplayDeterministicParallel(t *testing.T) {
	trace, _ := recordRun(t, blockedProgram)
	want := replayRun(t, blockedProgram, trace)
	for i := 0; i < 4; i++ {
		t.Run(fmt.Sprintf("replay%d", i), func(t *testing.T) {
			t.Parallel()
			if got := replayRun(t, blockedProgram, trace); got != want {
				t.Errorf("replay not deterministic\n--- want ---\n%s--- got ---\n%s", want, got)
			}
		})
	}
}

// TestTraceEncodeDecodeRoundTrip checks the text serialization preserves
// a recorded trace exactly, and that replaying the decoded copy matches.
func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	trace, _ := recordRun(t, blockedProgram)
	var buf bytes.Buffer
	if err := trace.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := core.DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, buf.String())
	}
	if !reflect.DeepEqual(trace, decoded) {
		t.Fatalf("round-trip changed the trace\nin:  %+v\nout: %+v", trace, decoded)
	}
	want := replayRun(t, blockedProgram, trace)
	if got := replayRun(t, blockedProgram, decoded); got != want {
		t.Errorf("decoded trace replays differently\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestReplayValidation checks that traces not matching the run fail with
// ErrTraceMismatch instead of silently producing a different analysis.
func TestReplayValidation(t *testing.T) {
	trace, _ := recordRun(t, drainProgram)

	run := func(mutate func(tr *core.Trace), cfgEdit func(cfg *core.Config)) error {
		cp := *trace
		cp.Events = append([]core.TraceEvent(nil), trace.Events...)
		if mutate != nil {
			mutate(&cp)
		}
		kg := drainClient()
		an, err := core.NewAnalysis[string, string, string](kg, drainProgram())
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.K = 1
		cfg.ReplayTrace = &cp
		if cfgEdit != nil {
			cfgEdit(&cfg)
		}
		return an.RunSwiftAsync(kg.State(kg.MakeBits()), cfg).Err
	}

	cases := []struct {
		name   string
		mutate func(tr *core.Trace)
		cfg    func(cfg *core.Config)
	}{
		{"wrong k", nil, func(cfg *core.Config) { cfg.K = 2 }},
		{"wrong entry", func(tr *core.Trace) { tr.Entry = "other" }, nil},
		{"install without spawn", func(tr *core.Trace) {
			tr.Events = []core.TraceEvent{{Seq: 1, Kind: core.TraceInstall, Trigger: "f"}}
		}, nil},
		{"unresolved spawn", func(tr *core.Trace) {
			// Keep only the spawn events: every install/fail disappears.
			var kept []core.TraceEvent
			for _, e := range tr.Events {
				if e.Kind == core.TraceSpawn {
					kept = append(kept, e)
				}
			}
			tr.Events = kept
		}, nil},
	}
	for _, tc := range cases {
		if err := run(tc.mutate, tc.cfg); !errors.Is(err, core.ErrTraceMismatch) {
			t.Errorf("%s: err = %v, want ErrTraceMismatch", tc.name, err)
		}
	}
}

// TestDecodeTraceRejectsGarbage covers the parser's failure modes.
func TestDecodeTraceRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"not a trace\n",
		"swift-async-trace v1\nentry\n",
		"swift-async-trace v1\nk five\n",
		"swift-async-trace v1\nspawn x f\n",
		"swift-async-trace v1\nspawn 1 f unforced\n",
		"swift-async-trace v1\nwhat 1 f\n",
	} {
		if _, err := core.DecodeTrace(strings.NewReader(in)); err == nil {
			t.Errorf("decoded garbage %q", in)
		}
	}
}

// TestReplayExitStatesMatchSync sanity-checks Theorem 3.1 through the
// replay path: the replayed asynchronous run agrees with the synchronous
// engines on the program's exit states.
func TestReplayExitStatesMatchSync(t *testing.T) {
	trace, _ := recordRun(t, drainProgram)
	kg := drainClient()
	an, err := core.NewAnalysis[string, string, string](kg, drainProgram())
	if err != nil {
		t.Fatal(err)
	}
	init := kg.State(kg.MakeBits())
	td := an.RunTD(init, core.TDConfig())
	cfg := core.DefaultConfig()
	cfg.K = 1
	cfg.ReplayTrace = trace
	rep := an.RunSwiftAsync(init, cfg)
	if td.Err != nil || rep.Err != nil {
		t.Fatalf("td err=%v replay err=%v", td.Err, rep.Err)
	}
	if got, want := fmt.Sprint(rep.ExitStates("main", init)), fmt.Sprint(td.ExitStates("main", init)); got != want {
		t.Errorf("exit states: replay %s, td %s", got, want)
	}
}

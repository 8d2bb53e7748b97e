package main

import (
	"strings"
	"testing"
	"time"
)

func defaultOptions() options {
	return options{
		engine: "swift", k: 5, theta: 1, timeout: time.Minute,
		edges: 20_000_000, rels: 5_000_000,
	}
}

func TestCLIOnMirror(t *testing.T) {
	var b strings.Builder
	o := defaultOptions()
	o.k = 2
	o.stats = true
	o.dumpBU = true
	if err := run(&b, "../../testdata/mirror.mj", o); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"engine swift finished",
		"cacheFile (property File)",
		"retryConn (property Conn)",
		"per-procedure top-down summaries:",
		"bottom-up summaries:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "mainFile (property") {
		t.Error("clean site reported as error")
	}
}

func TestCLIEngines(t *testing.T) {
	for _, engine := range []string{"td", "bu", "swift-async"} {
		var b strings.Builder
		o := defaultOptions()
		o.engine = engine
		if err := run(&b, "../../testdata/mirror.mj", o); err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !strings.Contains(b.String(), "2 allocation site(s)") {
			t.Errorf("%s: error report missing:\n%s", engine, b.String())
		}
		// Both hybrid engines print the trigger summary; the baselines do not.
		if got, want := strings.Contains(b.String(), "bottom-up triggered on"), engine == "swift-async"; got != want {
			t.Errorf("%s: trigger summary printed = %v, want %v:\n%s", engine, got, want, b.String())
		}
	}
}

func TestCLIDumps(t *testing.T) {
	var b strings.Builder
	o := defaultOptions()
	o.dumpIR = true
	if err := run(&b, "../../testdata/mirror.mj", o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "proc Mirror.fetch {") {
		t.Errorf("IR dump missing procedure:\n%.400s", b.String())
	}
	b.Reset()
	o = defaultOptions()
	o.dumpCG = true
	if err := run(&b, "../../testdata/mirror.mj", o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Main.main") || !strings.Contains(b.String(), "-> Mirror.fetch") {
		t.Errorf("call graph dump wrong:\n%s", b.String())
	}
}

func TestCLIErrors(t *testing.T) {
	o := defaultOptions()
	if err := run(&strings.Builder{}, "no-such-file.mj", o); err == nil {
		t.Error("missing file accepted")
	}
	o.engine = "bogus"
	if err := run(&strings.Builder{}, "../../testdata/mirror.mj", o); err == nil {
		t.Error("bogus engine accepted")
	}
}

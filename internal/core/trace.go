package core

// Trigger record/replay for RunSwiftAsync, and the hybrid driver's replay
// executor.
//
// A live RunSwiftAsync run is timing-dependent for exactly one reason: the
// top-down tabulation's decisions depend on *which bottom-up summaries are
// visible at each call event*, and summaries are installed by concurrent
// workers. Everything else — the tabulation itself, each run_bu given its
// inputs — is deterministic. So the schedule is fully captured by three
// event kinds aligned to the main goroutine's call-event stream: when a
// trigger's worker was spawned (its inputs are snapshots of main-goroutine
// state at that point), and when its outcome became visible (installed,
// or failed). The goroutine executor records them (Config.RecordTrace).
// The replay executor (Config.ReplayTrace) re-runs the same tabulation
// single-threaded through the same driver, but takes the schedule from
// the trace instead of the trigger condition: it runs each run_bu inline
// at its recorded spawn and applies the outcome at its recorded
// install/fail event — bit-deterministic, which is what lets swift-async
// join the byte-identical table harness (see DESIGN.md §7).

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// TraceEventKind classifies one scheduling decision of an asynchronous
// run.
type TraceEventKind uint8

const (
	// TraceSpawn records that a bottom-up worker for Trigger was spawned.
	TraceSpawn TraceEventKind = iota + 1
	// TraceInstall records that the worker's summaries became visible to
	// the top-down analysis.
	TraceInstall
	// TraceFail records that the worker completed without installing
	// (budget exhaustion, a contained panic, or a fatal error).
	TraceFail
)

func (k TraceEventKind) String() string {
	switch k {
	case TraceSpawn:
		return "spawn"
	case TraceInstall:
		return "install"
	case TraceFail:
		return "fail"
	}
	return "?"
}

// TraceEvent is one recorded scheduling decision. Seq is the number of
// call events the main goroutine had processed when the decision was
// taken; the drain phase after the worklist empties runs at one final seq
// past the last call event. Within one seq, list order is authoritative
// (installs and fails precede spawns).
type TraceEvent struct {
	Seq     int
	Kind    TraceEventKind
	Trigger string
	// Forced marks a drain-phase spawn whose frontier never became ready
	// (recorded for inspection; replay follows the event stream either
	// way).
	Forced bool
}

// Trace is a recorded asynchronous schedule plus the identity of the run
// that produced it. Record with Config.RecordTrace, replay with
// Config.ReplayTrace; Encode/DecodeTrace round-trip it through a text
// format for cmd/swiftbench -record/-replay.
type Trace struct {
	// Label is an uninterpreted caller-chosen name (e.g. the benchmark);
	// core only carries it through serialization.
	Label string
	// Entry is the program entry procedure; K and Theta are the
	// thresholds of the recorded configuration. Replay validates all
	// three against the run.
	Entry string
	K     int
	Theta int

	Events []TraceEvent
}

// reset prepares the trace for a fresh recording.
func (t *Trace) reset(entry string, config Config) {
	t.Entry = entry
	t.K = config.K
	t.Theta = config.Theta
	t.Events = t.Events[:0]
}

// add appends one event.
func (t *Trace) add(seq int, kind TraceEventKind, trigger string, forced bool) {
	t.Events = append(t.Events, TraceEvent{Seq: seq, Kind: kind, Trigger: trigger, Forced: forced})
}

// validate checks a trace against the run about to replay it.
func (t *Trace) validate(entry string, config Config) error {
	if t.Entry != entry {
		return fmt.Errorf("%w: trace entry %q, program entry %q", ErrTraceMismatch, t.Entry, entry)
	}
	if t.K != config.K || t.Theta != config.Theta {
		return fmt.Errorf("%w: trace recorded with k=%d theta=%d, replaying with k=%d theta=%d",
			ErrTraceMismatch, t.K, t.Theta, config.K, config.Theta)
	}
	seq := 0
	for i, e := range t.Events {
		if e.Seq < seq {
			return fmt.Errorf("%w: event %d out of order (seq %d after %d)", ErrTraceMismatch, i, e.Seq, seq)
		}
		seq = e.Seq
		if e.Trigger == "" || e.Kind < TraceSpawn || e.Kind > TraceFail {
			return fmt.Errorf("%w: malformed event %d", ErrTraceMismatch, i)
		}
	}
	return nil
}

// traceHeader is the first line of the serialized format.
const traceHeader = "swift-async-trace v1"

// Encode writes the trace in a line-oriented text format:
//
//	swift-async-trace v1
//	label elevator
//	entry main
//	k 5
//	theta 1
//	spawn 12 f
//	install 15 f
//	spawn 17 g forced
//	fail 17 g
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, traceHeader)
	if t.Label != "" {
		fmt.Fprintf(bw, "label %s\n", t.Label)
	}
	fmt.Fprintf(bw, "entry %s\n", t.Entry)
	fmt.Fprintf(bw, "k %d\n", t.K)
	fmt.Fprintf(bw, "theta %d\n", t.Theta)
	for _, e := range t.Events {
		if e.Forced {
			fmt.Fprintf(bw, "%s %d %s forced\n", e.Kind, e.Seq, e.Trigger)
			continue
		}
		fmt.Fprintf(bw, "%s %d %s\n", e.Kind, e.Seq, e.Trigger)
	}
	return bw.Flush()
}

// DecodeTrace parses a trace serialized by Encode.
func DecodeTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("core: empty trace: %w", ErrTraceMismatch)
	}
	if strings.TrimSpace(sc.Text()) != traceHeader {
		return nil, fmt.Errorf("core: not a %s file: %w", traceHeader, ErrTraceMismatch)
	}
	t := &Trace{}
	line := 1
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		bad := func() (*Trace, error) {
			return nil, fmt.Errorf("core: trace line %d malformed: %w", line, ErrTraceMismatch)
		}
		switch fields[0] {
		case "label":
			if len(fields) != 2 {
				return bad()
			}
			t.Label = fields[1]
		case "entry":
			if len(fields) != 2 {
				return bad()
			}
			t.Entry = fields[1]
		case "k", "theta":
			if len(fields) != 2 {
				return bad()
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return bad()
			}
			if fields[0] == "k" {
				t.K = n
			} else {
				t.Theta = n
			}
		case "spawn", "install", "fail":
			if len(fields) < 3 || len(fields) > 4 {
				return bad()
			}
			seq, err := strconv.Atoi(fields[1])
			if err != nil {
				return bad()
			}
			kind := TraceSpawn
			switch fields[0] {
			case "install":
				kind = TraceInstall
			case "fail":
				kind = TraceFail
			}
			forced := false
			if len(fields) == 4 {
				if fields[3] != "forced" {
					return bad()
				}
				forced = true
			}
			t.add(seq, kind, fields[2], forced)
		default:
			return bad()
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("core: reading trace: %w", err)
	}
	return t, nil
}

// replayer is the replay executor's state: the trace being replayed, the
// next event to consume, and the outcome of each executed spawn until its
// install or fail event.
type replayer[S cmp.Ordered, R cmp.Ordered, P cmp.Ordered] struct {
	trace  *Trace
	cursor int
	stash  map[string]completion[S, R, P]
}

// replayOutcomesAt consumes this call event's recorded install/fail
// events, applying the stashed outcome of each spawn at the moment the
// recorded run's top-down analysis first saw it.
func (h *hybrid[S, R, P]) replayOutcomesAt() error {
	r := h.replay
	for r.cursor < len(r.trace.Events) {
		e := r.trace.Events[r.cursor]
		if e.Seq < h.seq {
			return fmt.Errorf("%w: event %d (%s %s at seq %d) was never consumed",
				ErrTraceMismatch, r.cursor, e.Kind, e.Trigger, e.Seq)
		}
		if e.Seq != h.seq || e.Kind == TraceSpawn {
			return nil
		}
		r.cursor++
		if err := h.replayOutcome(e); err != nil {
			return err
		}
	}
	return nil
}

// replaySpawnsAt consumes this call event's recorded spawns.
func (h *hybrid[S, R, P]) replaySpawnsAt() error {
	r := h.replay
	for r.cursor < len(r.trace.Events) {
		e := r.trace.Events[r.cursor]
		if e.Seq != h.seq || e.Kind != TraceSpawn {
			return nil
		}
		r.cursor++
		if err := h.replaySpawn(e); err != nil {
			return err
		}
	}
	return nil
}

// replaySpawn runs a recorded spawn inline and stashes its outcome until
// the trace says it became visible. The inputs equal the recorded worker's
// snapshots: the summary store and incoming-state multisets exactly as
// they stood at this point of the recorded run (equality holds
// inductively — every earlier event replayed identically). A trigger
// spawned again must have panicked within its retry budget the time
// before: the recorded run applied that outcome, which leaves no event,
// before it respawned.
func (h *hybrid[S, R, P]) replaySpawn(e TraceEvent) error {
	r := h.replay
	if prev, ok := r.stash[e.Trigger]; ok {
		if retry, _ := h.apply(prev); !retry {
			return fmt.Errorf("%w: %s respawned at seq %d but its previous run_bu earned no retry",
				ErrTraceMismatch, e.Trigger, e.Seq)
		}
	}
	c := h.runBU(e.Trigger, h.frontier(e.Trigger), h.res.BU, h.res.TD.EntrySeen)
	// Counters are charged at the spawn, as the recorded run charges every
	// spawned worker's by its end, even if the replay stops before the
	// outcome's event.
	h.res.BUStats.add(c.stats)
	c.stats = BUStats{}
	r.stash[e.Trigger] = c
	return nil
}

// replayOutcome applies a stashed spawn outcome at its recorded
// install/fail event, verifying the replayed run_bu agreed with the
// recorded one about succeeding.
func (h *hybrid[S, R, P]) replayOutcome(e TraceEvent) error {
	c, ok := h.replay.stash[e.Trigger]
	if !ok {
		return fmt.Errorf("%w: %s of %s at seq %d without a preceding spawn",
			ErrTraceMismatch, e.Kind, e.Trigger, e.Seq)
	}
	delete(h.replay.stash, e.Trigger)
	switch {
	case e.Kind == TraceInstall && c.err != nil:
		return fmt.Errorf("%w: trace installs %s but the replayed run_bu failed: %v",
			ErrTraceMismatch, e.Trigger, c.err)
	case e.Kind == TraceFail && c.err == nil:
		return fmt.Errorf("%w: trace fails %s but the replayed run_bu succeeded",
			ErrTraceMismatch, e.Trigger)
	case e.Kind != TraceInstall && e.Kind != TraceFail:
		return fmt.Errorf("%w: unexpected %s event at seq %d", ErrTraceMismatch, e.Kind, e.Seq)
	}
	retry, err := h.apply(c)
	if retry {
		return fmt.Errorf("%w: trace fails %s but the replayed run_bu earned a retry",
			ErrTraceMismatch, e.Trigger)
	}
	if err != nil {
		h.abort(e.Trigger, err)
	}
	return nil
}

// replayTail processes the drain-phase tail of the trace in list order.
func (h *hybrid[S, R, P]) replayTail() error {
	r := h.replay
	for r.cursor < len(r.trace.Events) {
		e := r.trace.Events[r.cursor]
		r.cursor++
		if e.Kind == TraceSpawn {
			if err := h.replaySpawn(e); err != nil {
				return err
			}
			continue
		}
		if err := h.replayOutcome(e); err != nil {
			return err
		}
		if h.aborted {
			return errWorkerFailed
		}
	}
	if len(r.stash) > 0 {
		return fmt.Errorf("%w: trace ended with unresolved spawns: %v",
			ErrTraceMismatch, newSortedSet(keysOf(r.stash)))
	}
	return nil
}

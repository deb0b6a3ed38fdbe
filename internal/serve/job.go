package serve

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"sadproute/internal/netlist"
	"sadproute/internal/router"
	"sadproute/internal/rules"
)

// State is a job's lifecycle state. Transitions are strictly
// queued -> running -> {done, failed, canceled}, with the shortcut
// queued -> canceled for jobs cancelled before a worker claims them.
type State string

// Job lifecycle states (docs/sadpd-api.md "Job lifecycle").
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Request is the POST /v1/jobs body: the netlist in the internal/netlist
// text format, optional design rules (default: the 10 nm node set) and
// optional router-option overrides applied on top of the paper defaults.
type Request struct {
	// Name is an optional client label echoed in statuses.
	Name string `json:"name,omitempty"`
	// Netlist is the routing instance in the internal/netlist text format
	// (the same bytes cmd/benchgen emits and cmd/sadproute -in consumes).
	Netlist string `json:"netlist"`
	// Rules overrides the design rules; nil selects rules.Node10nm().
	Rules *RulesPayload `json:"rules,omitempty"`
	// Options overrides router parameters; nil fields keep the paper
	// defaults (router.Defaults).
	Options *OptionsPayload `json:"options,omitempty"`
	// Trace controls the per-job deterministic JSONL trace that feeds the
	// SSE events endpoint. Nil means true; false saves the trace overhead
	// and the events stream carries state transitions only.
	Trace *bool `json:"trace,omitempty"`
}

// RulesPayload mirrors rules.Set with JSON names (docs/sadpd-api.md).
type RulesPayload struct {
	WLine    int `json:"w_line"`
	WSpacer  int `json:"w_spacer"`
	WCut     int `json:"w_cut"`
	WCore    int `json:"w_core"`
	DCut     int `json:"d_cut"`
	DCore    int `json:"d_core"`
	DOverlap int `json:"d_overlap"`
}

// OptionsPayload carries optional router.Options overrides. Pointer
// fields distinguish "absent, keep the default" from explicit zeroes.
type OptionsPayload struct {
	Alpha           *int  `json:"alpha,omitempty"`
	Beta            *int  `json:"beta,omitempty"`
	Gamma2          *int  `json:"gamma2,omitempty"`
	FlipThresholdNM *int  `json:"flip_threshold_nm,omitempty"`
	MaxRipup        *int  `json:"max_ripup,omitempty"`
	ColorFlip       *bool `json:"color_flip,omitempty"`
	WindowCheck     *bool `json:"window_check,omitempty"`
	FinalRepair     *bool `json:"final_repair,omitempty"`
	DirPenalty      *int  `json:"dir_penalty,omitempty"`
	MaxExpand       *int  `json:"max_expand,omitempty"`
}

// apply overlays the non-nil fields onto opt.
func (p *OptionsPayload) apply(opt *router.Options) {
	if p == nil {
		return
	}
	setInt := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setBool := func(dst *bool, src *bool) {
		if src != nil {
			*dst = *src
		}
	}
	setInt(&opt.Alpha, p.Alpha)
	setInt(&opt.Beta, p.Beta)
	setInt(&opt.Gamma2, p.Gamma2)
	setInt(&opt.FlipThresholdNM, p.FlipThresholdNM)
	setInt(&opt.MaxRipup, p.MaxRipup)
	setBool(&opt.ColorFlip, p.ColorFlip)
	setBool(&opt.WindowCheck, p.WindowCheck)
	setBool(&opt.FinalRepair, p.FinalRepair)
	setInt(&opt.DirPenalty, p.DirPenalty)
	setInt(&opt.MaxExpand, p.MaxExpand)
}

// SubmitResponse is the 202 body of POST /v1/jobs, snapshotted at
// admission time (so it is deterministic: a worker may already be running
// the job by the time the bytes hit the wire).
type SubmitResponse struct {
	ID       string `json:"id"`
	State    State  `json:"state"`
	QueuePos int    `json:"queue_pos"`
}

// JobStatus is the GET /v1/jobs/{id} body and the SSE state/end payload.
type JobStatus struct {
	ID          string `json:"id"`
	Name        string `json:"name,omitempty"`
	State       State  `json:"state"`
	Error       string `json:"error,omitempty"`
	TraceEvents int    `json:"trace_events"`
}

// Summary is the deterministic headline of a finished job: the same
// numbers cmd/sadproute prints, minus every wall-clock field.
type Summary struct {
	Design           string  `json:"design"`
	Nets             int     `json:"nets"`
	GridW            int     `json:"grid_w"`
	GridH            int     `json:"grid_h"`
	Layers           int     `json:"layers"`
	Routed           int     `json:"routed"`
	Failed           int     `json:"failed"`
	RoutabilityPct   float64 `json:"routability_pct"`
	WirelengthCells  int     `json:"wirelength_cells"`
	Vias             int     `json:"vias"`
	SideOverlayUnits float64 `json:"side_overlay_units"`
	SideOverlayNM    int     `json:"side_overlay_nm"`
	TipOverlayNM     int     `json:"tip_overlay_nm"`
	HardOverlays     int     `json:"hard_overlays"`
	Conflicts        int     `json:"cut_conflicts"`
	Violations       int     `json:"violations"`
}

// Result is the GET /v1/jobs/{id}/result body. ResultText is the
// canonical deterministic dump (RenderResultText) — byte-identical to
// cmd/sadproute -result on the same input.
type Result struct {
	ID         string           `json:"id"`
	State      State            `json:"state"`
	Summary    Summary          `json:"summary"`
	Counters   map[string]int64 `json:"counters"`
	ResultText string           `json:"result_text"`
}

// Job is one routing job owned by the Store. All mutable fields are
// guarded by mu; the parsed inputs (nl, ds, opt) are immutable after
// compile.
type Job struct {
	id  string
	req Request

	nl      *netlist.Netlist
	ds      rules.Set
	opt     router.Options
	traceOn bool
	tail    *tail

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	state  State
	errMsg string
	result *Result
}

// compileRequest validates a Request into a runnable job payload.
func compileRequest(req Request) (*netlist.Netlist, rules.Set, router.Options, error) {
	var opt router.Options
	if strings.TrimSpace(req.Netlist) == "" {
		return nil, rules.Set{}, opt, fmt.Errorf("netlist: empty")
	}
	nl, err := netlist.Read(strings.NewReader(req.Netlist))
	if err != nil {
		return nil, rules.Set{}, opt, err
	}
	ds := rules.Node10nm()
	if req.Rules != nil {
		ds = rules.Set{
			WLine:    req.Rules.WLine,
			WSpacer:  req.Rules.WSpacer,
			WCut:     req.Rules.WCut,
			WCore:    req.Rules.WCore,
			DCut:     req.Rules.DCut,
			DCore:    req.Rules.DCore,
			DOverlap: req.Rules.DOverlap,
		}
		if err := ds.Validate(); err != nil {
			return nil, rules.Set{}, opt, err
		}
	}
	opt = router.Defaults()
	req.Options.apply(&opt)
	if err := opt.Validate(); err != nil {
		return nil, rules.Set{}, opt, err
	}
	return nl, ds, opt, nil
}

// bind attaches the run context. Called once at admission (and again for
// journal-recovered jobs, which cross process boundaries).
func (j *Job) bind(base context.Context) {
	j.ctx, j.cancel = context.WithCancel(base)
}

// claim moves a queued job to running; false means the job was cancelled
// while waiting and the worker must skip it.
func (j *Job) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// Status snapshots the job for the status endpoint and SSE payloads.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	n, _ := j.tail.Len()
	return JobStatus{
		ID:          j.id,
		Name:        j.req.Name,
		State:       j.state,
		Error:       j.errMsg,
		TraceEvents: n,
	}
}

// StateNow returns the current state.
func (j *Job) StateNow() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// ResultNow returns the stored result, if the job is done.
func (j *Job) ResultNow() (*Result, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.result != nil
}

// abort cancels the job's context if it is not already terminal. Used by
// the drain deadline path; returns whether a cancellation was issued.
func (j *Job) abort() bool {
	j.mu.Lock()
	terminal := j.state.Terminal()
	j.mu.Unlock()
	if terminal || j.cancel == nil {
		return false
	}
	j.cancel()
	return true
}

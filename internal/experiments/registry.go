package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
)

// Runner is one reproducible experiment. The context bounds the experiment's
// training runs: cancellation aborts the current run and surfaces ctx's
// error.
type Runner func(context.Context, Options) (*Table, error)

// registry lists every experiment in presentation order.
var registry = []struct {
	id  string
	run Runner
}{
	{"fig2", Fig2},
	{"fig4", Fig4},
	{"table1", Table1},
	{"table2", Table2},
	{"fig5", Fig5},
	{"theorem1", Theorem1},
	{"theorem2", Theorem2},
	{"commload", CommLoad},
	{"fractional", Fractional},
	{"tailbound", TailBound},
	{"multibatch", MultiBatch},
	{"approx", Approx},
	{"skew", Skew},
	{"heterotrain", HeteroTrain},
	{"convergence", Convergence},
	{"scaling", Scaling},
	{"adaptive", Adaptive},
}

// Names lists all experiment ids in presentation order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Run executes one experiment by id and renders it to w. ctx bounds the
// experiment's training runs.
func Run(ctx context.Context, id string, opt Options, w io.Writer) (*Table, error) {
	var r Runner
	for _, e := range registry {
		if e.id == id {
			r = e.run
			break
		}
	}
	if r == nil {
		known := Names()
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
	}
	t, err := r(ctx, opt)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", id, err)
	}
	if w != nil {
		t.Render(w)
	}
	return t, nil
}

// RunAll executes every experiment in order, rendering each to w.
func RunAll(ctx context.Context, opt Options, w io.Writer) ([]*Table, error) {
	var tables []*Table
	for _, e := range registry {
		if err := ctx.Err(); err != nil {
			return tables, err
		}
		t, err := Run(ctx, e.id, opt, w)
		if err != nil {
			return tables, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

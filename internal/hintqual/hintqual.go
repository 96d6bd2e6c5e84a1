// Package hintqual is a shim over package attribution, whose Recorder runs
// the hint-quality audit when attached through core.Config.HintQual. The
// benchmark module, perfbench, is its only importer; the change that moves
// perfbench to package attribution deletes this package.
package hintqual

import "thermometer/internal/attribution"

// Options is attribution.Options.
type Options = attribution.Options

// New returns an unbound attribution.Recorder.
func New(opts Options) *attribution.Recorder { return attribution.New(opts) }

// Package experiments regenerates every table and figure of the
// paper's evaluation (§8–9) on the simulated substrate: communication
// volumes (Figures 6–7, Table 4), % of peak and runtime under the
// performance model (Figures 8–11, 13–14), the
// communication/computation breakdown (Figure 12), the decomposition
// comparisons (Table 1/3, Figures 3 and 5), the sequential I/O
// optimality results (Listing 1 / Theorem 1), and the timed-transport
// time-vs-volume comparison (TimeVsVolume, the Figure 6 shape with
// runtime on the y axis).
//
// Small-scale points are executed on the machine simulator with real
// data movement; paper-scale points are evaluated with the structural
// models that the test suite cross-checks against execution, and priced
// with machine.NetworkParams.Time at the paper's Piz Daint constants
// (machine.PizDaintNet). The timed experiments accept any
// machine.NetworkParams, including presets whose γ has been replaced by
// a matrix.Calibrate measurement (cmd/experiments -calibrate).
package experiments

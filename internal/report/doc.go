// Package report renders the experiment results as fixed-width text
// tables — the textual counterpart of the paper's figures. Tables align
// on column widths computed from the data, and Seconds pretty-prints
// runtimes across nine orders of magnitude.
package report

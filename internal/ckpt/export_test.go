package ckpt

// Exports for the external test package, which — unlike this one — may
// import internal/gpu and so can put real snapshots through the codec.
type Graph = graph

var BuildGraph = buildGraph

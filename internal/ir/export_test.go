package ir

// ReferencePrint exposes the oracle printer to the external tests and
// benchmarks that run it over the corpus.
var ReferencePrint = referencePrint

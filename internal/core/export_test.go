package core

// GenHIRSystem exposes the random all-HIR system generator to the
// external differential test (oracle_test.go).
var GenHIRSystem = genHIRSystem

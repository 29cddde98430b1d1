package uarch

// ScanCensus exposes the full-scan census oracle to the external tests.
var ScanCensus = scanCensus

//go:build !race

package shard_test

// summaryKillTrials is how many trials TestRunSummaryResubmittedJobFinishes
// lets its first job complete before killing it; see race_on_test.go.
const summaryKillTrials = 5000

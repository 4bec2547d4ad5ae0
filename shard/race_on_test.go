//go:build race

package shard_test

// summaryKillTrials is how many trials TestRunSummaryResubmittedJobFinishes
// lets its first job complete before killing it. The race detector slows
// the walk about twentyfold, so fewer trials give about the same wall
// time.
const summaryKillTrials = 200

// Package tpch provides a deterministic, scale-factor-parameterized TPC-H
// data generator and hand-built physical plans for all 22 TPC-H queries
// over the vectorized engine. The paper evaluates Micro Adaptivity on
// TPC-H SF-100 (schema and queries used for demonstration purposes, as the
// paper notes); this reproduction defaults to much smaller scale factors
// with proportionally scaled vector sizes and vw-greedy parameters.
package tpch

import "fmt"

// Dates are stored as int32 days since 1992-01-01 (the first TPC-H order
// date). The workload spans 1992-01-01 .. 1998-12-31.

// EpochYear is the year of day 0.
const EpochYear = 1992

var daysInMonth = [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// yearStart[i] is the day number of Jan 1 of year EpochYear+i.
var yearStart = func() [16]int32 {
	var ys [16]int32
	d := int32(0)
	for i := 0; i < 16; i++ {
		ys[i] = d
		days := 365
		if isLeap(EpochYear + i) {
			days = 366
		}
		d += int32(days)
	}
	return ys
}()

// Date converts a calendar date to day-number form. Panics outside
// 1992-2007.
func Date(y, m, d int) int32 {
	if y < EpochYear || y >= EpochYear+16 {
		panic(fmt.Sprintf("tpch.Date: year %d out of range", y))
	}
	day := yearStart[y-EpochYear]
	for i := 0; i < m-1; i++ {
		day += int32(daysInMonth[i])
		if i == 1 && isLeap(y) {
			day++
		}
	}
	return day + int32(d-1)
}

// YearOf returns the calendar year of a day number.
func YearOf(day int64) int64 {
	for i := len(yearStart) - 1; i >= 0; i-- {
		if day >= int64(yearStart[i]) {
			return int64(EpochYear + i)
		}
	}
	return EpochYear
}

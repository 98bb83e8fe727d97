//go:build !asfpoison

package asf

const poisonLent = false

module logres/benchmark

go 1.22

require logres v0.0.0

replace logres => ../

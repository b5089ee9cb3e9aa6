module gostats/benchmark

go 1.24

require gostats v0.0.0

replace gostats => ../

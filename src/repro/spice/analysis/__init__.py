"""Circuit analyses: operating point, DC sweep, AC, transient."""

"""python3 tests/ci/golden_digests.py GOLDEN_JSON CSV SVG TXT: the steady golden log, and its dry_temp_c charts as
`plot --out` writes them (the chart, then one newline), have the digests GOLDEN_JSON records; exits 1 if not."""
import hashlib, json, sys

golden_json, csv, svg, txt = sys.argv[1:]
golden = json.load(open(golden_json, encoding="utf-8"))["steady"]
ok = True
for path, key, end in ((csv, "csv_sha256", b""), (svg, "svg_sha256", b"\n"), (txt, "ascii_sha256", b"\n")):
    data = open(path, "rb").read()
    got = hashlib.sha256(data[: len(data) - len(end)]).hexdigest() if data.endswith(end) else None
    print(path, got, golden[key])
    ok = ok and got == golden[key]
sys.exit(0 if ok else 1)

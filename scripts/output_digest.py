#!/usr/bin/env python3
"""SHA-256 of every file under a slabrecon output directory, one per line.

Each ``report.json`` is hashed after ``reports.strip_timing``, since its
``timing_s`` field is the only part of a seeded run that changes from run
to run; every other file is hashed as written. Two runs of the same inputs
and config give the same lines, so comparing two program versions is one
``diff`` of their digests:

    PYTHONPATH=src python scripts/output_digest.py OUT_DIR > digest.txt

With ``--decoded``, a file that starts with the gzip magic is hashed after
``gzip.decompress`` and labelled ``(decompressed)``, so two versions that
write the same data through different compressors compare equal.
"""

import argparse
import gzip
import hashlib
import os

from slabrecon.reports import dump_json, read_json, strip_timing


def digest_lines(root, decoded=False):
    """``<sha256>  <relative path>`` for every file under ``root``, sorted by path;
    with ``decoded``, gzip files are hashed decompressed."""
    lines = []
    for folder, _, names in os.walk(root):
        for name in names:
            path = os.path.join(folder, name)
            if name == "report.json":
                data = dump_json(strip_timing(read_json(path)))
                label = " (timing_s stripped)"
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
                label = ""
                if decoded and data[:2] == b"\x1f\x8b":
                    data = gzip.decompress(data)
                    label = " (decompressed)"
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {rel}{label}")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", metavar="OUT_DIR", help="directory that simulate, "
                    "reconstruct or qc wrote into")
    ap.add_argument("--decoded", action="store_true", help="hash gzip files after "
                    "decompressing them, so a change of compressor compares equal")
    args = ap.parse_args()
    if not os.path.isdir(args.out_dir):
        ap.error(f"not a directory: {args.out_dir}")
    for line in digest_lines(args.out_dir, decoded=args.decoded):
        print(line)

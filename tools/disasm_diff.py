#!/usr/bin/env python3
"""Compare the machine code of matching functions in two object files.

    tools/disasm_diff.py [--objdump=PATH] OLD.o NEW.o REGEX

Disassembles both objects (objdump -dr -C), keeps the functions whose
demangled name matches REGEX (re.search), and prints one line per function:

    identical  <name>
    differs    <name>   (first differing instruction below it)
    only-old   <name>
    only-new   <name>

Addresses are normalised before comparing: instruction addresses are
dropped, a branch target keeps only its symbol and offset (offsets inside
the function are position independent), relocation lines keep their type
and symbol, and offsets into section-relative targets (.rodata, .text.*,
.LCn constant-pool labels) are blanked, since they move when unrelated
code in the same object changes.  Two functions read "identical" when
they run the same instructions on the same registers and stack slots, and
call the same symbols.

Exit status: 0 when every matching function is identical (and at least
one matched), 1 when any differs or exists in one object only, 2 on a
usage error or when no function matches.
"""

import argparse
import re
import subprocess
import sys

FUNC = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN = re.compile(r"^\s*[0-9a-f]+:\t(.*)$")
RELOC = re.compile(r"^\s*[0-9a-f]+: (R_\S+)\s+(.*)$")
TARGET = re.compile(r"\b[0-9a-f]+ <([^>]*)>")
COMMENT_ADDR = re.compile(r"#\s*[0-9a-f]+ <([^>]*)>")
SECTION_OFF = re.compile(r"(\.(?:rodata|text|data|bss)[\w.]*|\.LC)\d*([+-]0x[0-9a-f]+)?")


def disassemble(objdump, path):
    """Returns {demangled function name: [normalised lines]}."""
    out = subprocess.run([objdump, "-dr", "-C", "--no-show-raw-insn", path],
                         check=True, capture_output=True, text=True).stdout
    funcs = {}
    name, body = None, None
    for line in out.splitlines():
        m = FUNC.match(line)
        if m:
            name, body = m.group(1), []
            funcs[name] = body
            continue
        if body is None:
            continue
        m = RELOC.match(line)
        if m:
            body.append("reloc " + m.group(1) + " " + SECTION_OFF.sub(r"\1", m.group(2)))
            continue
        m = INSN.match(line)
        if not m:
            continue
        text = m.group(1).strip()
        text = COMMENT_ADDR.sub(lambda t: "# <" + t.group(1) + ">", text)
        text = TARGET.sub(lambda t: "<" + t.group(1) + ">", text)
        text = text.replace("<" + name + "+", "<self+")
        body.append(SECTION_OFF.sub(r"\1", text))
    return funcs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--objdump", default="objdump")
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("regex")
    args = ap.parse_args()
    try:
        pattern = re.compile(args.regex)
        old = disassemble(args.objdump, args.old)
        new = disassemble(args.objdump, args.new)
    except (re.error, OSError, subprocess.CalledProcessError) as e:
        print("disasm_diff: " + str(e), file=sys.stderr)
        return 2
    names = sorted(n for n in set(old) | set(new) if pattern.search(n))
    if not names:
        print("disasm_diff: no function matches " + args.regex, file=sys.stderr)
        return 2
    same = True
    for n in names:
        if n not in new:
            print("only-old  " + n)
        elif n not in old:
            print("only-new  " + n)
        elif old[n] == new[n]:
            print("identical " + n)
            continue
        else:
            print("differs   " + n)
            a, b = old[n], new[n]
            i = next((k for k in range(min(len(a), len(b))) if a[k] != b[k]), min(len(a), len(b)))
            print("  at instruction %d of %d / %d:" % (i, len(a), len(b)))
            print("  old: " + (a[i] if i < len(a) else "<end>"))
            print("  new: " + (b[i] if i < len(b) else "<end>"))
        same = False
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

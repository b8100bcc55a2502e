"""Problem variants and index persistence in one tour.

Shows the features beyond plain k-mismatch search: k-errors (Levenshtein)
matching, don't-care wild cards, and saving and restoring an index.

    python examples/variants_and_persistence.py
"""

from repro import KMismatchIndex
from repro.core.kerrors import best_per_start


def main() -> None:
    # --- k errors: indels, not just substitutions ------------------------
    index = KMismatchIndex("acagacagtt")
    print("k-errors search for 'acgaca' (one deletion away from 'acagaca'):")
    for occ in best_per_start(index.search_edit("acgaca", k=1)):
        window = index.text[occ.start:occ.end()]
        print(f"  window [{occ.start}:{occ.end()}] = {window!r}, distance {occ.distance}")

    # --- don't-cares: IUPAC 'n' positions match anything -------------------
    print("\nwild-card search for 'ana' (n = any base) in 'acagaca':")
    idx2 = KMismatchIndex("acagaca")
    print(f"  starts: {[o.start for o in idx2.search_wildcard('ana')]}")

    # --- persistence -----------------------------------------------------------
    payload = index.dumps()
    restored = KMismatchIndex.loads(payload)
    restored.verify()
    print(f"\npersisted and restored index over {len(restored.text)} bp "
          f"({len(payload)} payload chars); self-check passed")


if __name__ == "__main__":
    main()

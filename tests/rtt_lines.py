"""The line of ``golden/rtt_relations.txt`` that names one RTT component:
its row and column index pairs and its element."""


def describe(component) -> str:
    return (f"row=({component.row[0]},{component.row[1]}) "
            f"col=({component.col[0]},{component.col[1]}): "
            f"{component.element}")
